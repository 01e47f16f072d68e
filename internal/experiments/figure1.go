package experiments

import (
	"io"
	"sort"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/obd"
)

// Figure1Result reproduces Figure 1: the DTC, repair and service event
// timelines of four vehicles demonstrating that DTCs do not reliably
// precede failures.
type Figure1Result struct {
	Vehicles []Figure1Vehicle

	// Summary statistics over the whole fleet's recorded events:
	FailuresWithDTCBefore  int // failures with ≥1 DTC in the prior 30 days
	FailuresWithoutDTC     int
	DTCsUnrelatedToFailure int // DTC events with no failure in the next 30 days
	TotalDTCs              int
}

// Figure1Vehicle is one timeline row.
type Figure1Vehicle struct {
	VehicleID string
	Pattern   string // the paper's description of this vehicle's pattern
	Events    []obd.Event
}

// Figure1 selects the four paper-pattern vehicles (DTCs only after
// repair; no DTCs at all around two failures; DTCs shortly before the
// failure) and computes fleet-wide DTC/failure alignment statistics.
func Figure1(opts *Options) (*Figure1Result, error) {
	f := opts.fleet()
	res := &Figure1Result{}

	var failing []string
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		if v.Recorded && v.FailureDay >= 0 {
			failing = append(failing, v.ID)
		}
	}
	patterns := []string{
		"vehicle 1: DTCs produced long after repair without needing one",
		"vehicle 2: failure with no DTCs before or after",
		"vehicle 3: failure with no DTCs before or after",
		"vehicle 4: DTCs produced shortly before the failure",
	}
	for i, id := range failing {
		if i >= 4 {
			break
		}
		var evs []obd.Event
		for _, ev := range f.Events {
			if ev.VehicleID == id {
				evs = append(evs, ev)
			}
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].Time.Before(evs[b].Time) })
		res.Vehicles = append(res.Vehicles, Figure1Vehicle{
			VehicleID: id, Pattern: patterns[i], Events: evs,
		})
	}

	// Fleet-wide alignment statistics: the PH rule at 30 days, with the
	// DTCs for alarms.
	var dtcs []detector.Alarm
	for _, ev := range f.Events {
		if ev.Type == obd.EventDTC {
			dtcs = append(dtcs, detector.Alarm{VehicleID: ev.VehicleID, Time: ev.Time})
		}
	}
	m := eval.Evaluate(dtcs, f.Events, 30*24*time.Hour)
	res.FailuresWithDTCBefore, res.FailuresWithoutDTC = m.TP, m.TotalFailures-m.TP
	res.DTCsUnrelatedToFailure, res.TotalDTCs = m.FP, len(dtcs)
	return res, nil
}

// Render writes the timelines and statistics in a paper-like layout.
func (r *Figure1Result) Render(w io.Writer) {
	fprintf(w, "Figure 1 — DTC codes along with repair and service events\n")
	fprintf(w, "==========================================================\n")
	for i, v := range r.Vehicles {
		fprintf(w, "\n[%d] %s — %s\n", i+1, v.VehicleID, v.Pattern)
		for _, ev := range v.Events {
			tag := string(ev.Type.String()[0])
			switch ev.Type {
			case obd.EventDTC:
				tag = "D"
			case obd.EventRepair:
				tag = "R"
			case obd.EventService:
				tag = "S"
			}
			extra := ""
			if ev.DTC != nil {
				extra = " " + ev.DTC.Code
			}
			if ev.Note != "" {
				extra += " (" + ev.Note + ")"
			}
			fprintf(w, "   %s %s%s\n", ev.Time.Format("2006-01-02"), tag, extra)
		}
	}
	fprintf(w, "\nFleet-wide alignment (30-day window):\n")
	fprintf(w, "  failures preceded by a DTC:      %d\n", r.FailuresWithDTCBefore)
	fprintf(w, "  failures with no DTC warning:    %d\n", r.FailuresWithoutDTC)
	fprintf(w, "  DTC events unrelated to failure: %d of %d\n", r.DTCsUnrelatedToFailure, r.TotalDTCs)
	fprintf(w, "=> DTCs cannot be relied on to predict repairs (the paper's motivation)\n")
}
