package experiments

import (
	"io"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/transform"
)

// figure8Factor is the complete solution's self-tuning threshold factor.
const figure8Factor = 10

// Figure8Result reproduces Figure 8: the per-feature anomaly scores of
// the complete solution on one vehicle over its whole monitored life,
// with self-tuning thresholds, profile resets, alarms, and TP/FP
// classification at PH=30 days.
type Figure8Result struct {
	VehicleID    string
	FeatureNames []string
	Trace        *core.Trace
	// Alarms are the day-level alarms, and TruePositive[i] is Alarms[i]'s
	// outcome at PH=30d (the green/red rectangles of the paper's figure).
	Alarms       []detector.Alarm
	TruePositive []bool
	Events       []obd.Event
}

// Figure8 runs the complete solution, the grid's closest-pair ×
// correlation pipeline at factor 10, on the chosen vehicle (empty = the
// first recorded failing vehicle) and classifies alarm days at PH=30d.
func Figure8(opts *Options, vehicleID string) (*Figure8Result, error) {
	f := opts.fleet()
	if vehicleID == "" {
		for i := range f.Vehicles {
			v := &f.Vehicles[i]
			if v.Recorded && v.FailureDay >= 0 {
				vehicleID = v.ID
				break
			}
		}
	}
	cfg, err := eval.GridSpec{}.PipelineConfig(eval.ClosestPair, transform.Correlation, figure8Factor)
	if err != nil {
		return nil, err
	}
	cfg.Trace = &core.Trace{}
	alarms, err := core.RunVehicle(vehicleID, f.Records, f.Events, func() core.Config { return cfg })
	if err != nil {
		return nil, err
	}

	var events []obd.Event
	for _, ev := range f.Events {
		if ev.VehicleID == vehicleID && ev.Type != obd.EventDTC {
			events = append(events, ev)
		}
	}
	// Alarms settle in the order they are fed: TruePositive lines up.
	res := &Figure8Result{VehicleID: vehicleID, FeatureNames: cfg.Transformer.FeatureNames(), Trace: cfg.Trace,
		Alarms: eval.ConsolidateDaily(alarms), Events: events}
	h := eval.Horizon{PH: PH30, Settled: func(tp bool) { res.TruePositive = append(res.TruePositive, tp) }}
	h.Fold(res.Alarms, eval.Repairs(f.Events)[vehicleID])
	return res, nil
}

// Render writes a day-resolution strip chart per feature: '.' quiet,
// digits 1-9 scale of score/threshold ratio, '!' violation; below, the
// event and alarm rows.
func (r *Figure8Result) Render(w io.Writer) {
	fprintf(w, "Figure 8 — closest-pair scores on correlation features, vehicle %s\n", r.VehicleID)
	fprintf(w, "--------------------------------------------------------------------\n")
	if len(r.Trace.Times) == 0 {
		fprintf(w, "(no scored samples — profile never filled)\n")
		return
	}
	start := r.Trace.Times[0].Truncate(24 * time.Hour)
	end := r.Trace.Times[len(r.Trace.Times)-1]
	days := int(end.Sub(start).Hours()/24) + 1
	if days < 1 {
		days = 1
	}
	// Per feature per day: max score/threshold ratio.
	nf := len(r.FeatureNames)
	grid := make([][]float64, nf)
	for c := range grid {
		grid[c] = make([]float64, days)
	}
	// A sample's threshold is the self-tuning one its segment's
	// calibration gives, as SelfTuning.Calibrate computes it.
	absFloor := transform.AbsFloor(transform.Correlation.String())
	for i, ts := range r.Trace.Times {
		d := int(ts.Sub(start).Hours() / 24)
		if d < 0 || d >= days {
			continue
		}
		calib := &r.Trace.SegCalib[r.Trace.Segments[i]]
		for c, s := range r.Trace.Scores[i] {
			th := thresholds.Level(calib.Means[c], figure8Factor, thresholds.FloorStd(calib.Stds[c], calib.Means[c], absFloor))
			if th <= 0 {
				continue
			}
			ratio := s / th
			if ratio > grid[c][d] {
				grid[c][d] = ratio
			}
		}
	}
	for c := 0; c < nf; c++ {
		fprintf(w, "%-32s ", r.FeatureNames[c])
		for d := 0; d < days; d++ {
			ratio := grid[c][d]
			switch {
			case ratio == 0:
				fprintf(w, " ")
			case ratio > 1:
				fprintf(w, "!")
			case ratio > 0.66:
				fprintf(w, "+")
			case ratio > 0.33:
				fprintf(w, "-")
			default:
				fprintf(w, ".")
			}
		}
		fprintf(w, "\n")
	}
	// Event row.
	fprintf(w, "%-32s ", "events (S service, R repair)")
	evDay := map[int]byte{}
	for _, ev := range r.Events {
		d := int(ev.Time.Sub(start).Hours() / 24)
		if d < 0 || d >= days {
			continue
		}
		if ev.Type == obd.EventRepair {
			evDay[d] = 'R'
		} else if evDay[d] == 0 {
			evDay[d] = 'S'
		}
	}
	for d := 0; d < days; d++ {
		if b, ok := evDay[d]; ok {
			fprintf(w, "%c", b)
		} else {
			fprintf(w, " ")
		}
	}
	fprintf(w, "\n")
	// Alarm row with TP/FP classification.
	fprintf(w, "%-32s ", "alarms (T in PH30, F outside)")
	alarmDay := map[int]byte{}
	for i, a := range r.Alarms {
		d := int(a.Time.Sub(start).Hours() / 24)
		if d < 0 || d >= days {
			continue
		}
		if r.TruePositive[i] {
			alarmDay[d] = 'T'
		} else if alarmDay[d] == 0 {
			alarmDay[d] = 'F'
		}
	}
	for d := 0; d < days; d++ {
		if b, ok := alarmDay[d]; ok {
			fprintf(w, "%c", b)
		} else {
			fprintf(w, " ")
		}
	}
	fprintf(w, "\n")
}
