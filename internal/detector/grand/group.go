package grand

import (
	"errors"
	"sort"
	"time"

	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// GroupDeviation implements the ORIGINAL Grand strategy (Rögnvaldsson et
// al., DMKD 2018) that the paper describes before adopting the
// per-vehicle variant: the "wisdom of the crowd". Each vehicle's recent
// behaviour is compared against the rest of the fleet over the same
// calendar window; a vehicle whose samples are consistently strange
// relative to its peers is deviating.
//
// The paper argues this strategy suits homogeneous fleets (the original
// work studied city buses on similar routes) and is ill-suited to the
// Navarchos fleet, whose vehicles differ in model and usage. Having the
// group variant in the library makes that argument testable: run both
// on the synthetic fleet and compare.
type GroupDeviation struct {
	cfg Config

	// Window is the calendar period over which peers are pooled
	// (default 14 days).
	Window time.Duration
}

// NewGroupDeviation returns a fleet-level Grand detector.
func NewGroupDeviation(cfg Config, window time.Duration) *GroupDeviation {
	cfg.defaults()
	if window <= 0 {
		window = 14 * 24 * time.Hour
	}
	return &GroupDeviation{cfg: cfg, Window: window}
}

// VehicleDeviation is one vehicle's deviation level over one period.
type VehicleDeviation struct {
	VehicleID string
	Period    time.Time // period start
	Deviation float64   // martingale deviation level in [0, 1)
	Samples   int
}

// ErrNoData is returned when no transformed samples can be built.
var ErrNoData = errors.New("grand: no data for group deviation")

// Run computes, for every vehicle and every Window-sized period, the
// vehicle's deviation level against its peers: a Grand detector is
// fitted on ALL OTHER vehicles' transformed samples of the period, and
// the vehicle's own samples are streamed through it; the final
// martingale deviation is the vehicle's score for the period.
//
// kind/window parametrise the shared data transformation (the paper
// applies the group method to correlation features too).
func (g *GroupDeviation) Run(records []timeseries.Record, kind transform.Kind, trWindow int) ([]VehicleDeviation, error) {
	if len(records) == 0 {
		return nil, ErrNoData
	}
	// Transform every vehicle's stream once.
	byVehicle := timeseries.SplitByVehicle(records)
	type sample struct {
		t time.Time
		x []float64
	}
	transformed := map[string][]sample{}
	for vid, recs := range byVehicle {
		tr, err := transform.New(kind, trWindow)
		if err != nil {
			return nil, err
		}
		clean := timeseries.FilterRecords(recs, timeseries.CleanFilter)
		for _, r := range clean {
			tr.Collect(r)
			if tr.Ready() {
				x := make([]float64, tr.Dim())
				tr.EmitInto(x)
				transformed[vid] = append(transformed[vid], sample{t: r.Time, x: x})
			}
		}
	}
	// Period boundaries from the global time range.
	start, end := records[0].Time, records[len(records)-1].Time
	for _, r := range records {
		if r.Time.Before(start) {
			start = r.Time
		}
		if r.Time.After(end) {
			end = r.Time
		}
	}
	var out []VehicleDeviation
	for p := start.Truncate(24 * time.Hour); p.Before(end); p = p.Add(g.Window) {
		pEnd := p.Add(g.Window)
		// Per vehicle: own samples and peer samples of the period.
		own := map[string][][]float64{}
		for vid, ss := range transformed {
			for _, s := range ss {
				if !s.t.Before(p) && s.t.Before(pEnd) {
					own[vid] = append(own[vid], s.x)
				}
			}
		}
		for vid, mine := range own {
			if len(mine) < 3 {
				continue
			}
			var peers [][]float64
			for other, xs := range own {
				if other != vid {
					peers = append(peers, xs...)
				}
			}
			if len(peers) < 10 {
				continue
			}
			det := New(g.cfg)
			if err := det.Fit(peers); err != nil {
				continue
			}
			var last float64
			for _, x := range mine {
				s, err := det.Score(x)
				if err != nil {
					return nil, err
				}
				last = s[0]
			}
			out = append(out, VehicleDeviation{VehicleID: vid, Period: p, Deviation: last, Samples: len(mine)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Period.Equal(out[b].Period) {
			return out[a].Period.Before(out[b].Period)
		}
		return out[a].VehicleID < out[b].VehicleID
	})
	if len(out) == 0 {
		return nil, ErrNoData
	}
	return out, nil
}
