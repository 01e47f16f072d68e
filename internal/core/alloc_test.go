package core

import (
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// steadyCase pairs a transformation, detector and thresholder whose
// detecting steady state must not allocate. Each threshold sits out of
// the detector's reach (a huge self-tuning factor, or a constant above
// the score's range): alarm construction is allowed to allocate,
// scoring is not.
type steadyCase struct {
	name string
	kind transform.Kind
	det  func(featureNames []string) detector.Detector
	th   func() thresholds.Thresholder
}

var (
	selfTuning = func() thresholds.Thresholder { return thresholds.NewSelfTuning(1e9) }
	constant   = func() thresholds.Thresholder { return thresholds.NewConstant(2) }
	closest    = func(names []string) detector.Detector { return closestpair.New(names) }
)

func grandWith(m grand.Measure) func([]string) detector.Detector {
	return func([]string) detector.Detector { return grand.New(grand.Config{Measure: m}) }
}

// steadyCases starts with the complete solution (correlation window 12,
// closest-pair, self-tuning thresholds).
var steadyCases = []steadyCase{
	{"closest-pair/self-tuning", transform.Correlation, closest, selfTuning},
	{"closest-pair/constant", transform.Correlation, closest, func() thresholds.Thresholder { return thresholds.NewConstant(1e9) }},
	{"grand-knn/self-tuning", transform.Correlation, grandWith(grand.KNN), selfTuning},
	{"grand-knn/constant", transform.Correlation, grandWith(grand.KNN), constant},
	{"grand-median/constant", transform.Correlation, grandWith(grand.Median), constant},
	{"tranad-raw/self-tuning", transform.Raw, func([]string) detector.Detector {
		return tranad.New(tranad.Config{Window: 8, DModel: 12, Heads: 2, Epochs: 5, MaxWindows: 256, Seed: 1})
	}, selfTuning},
}

// steadyPipeline returns the complete solution driven past its profile
// fill so that every further record lands on the detecting fast path,
// plus a record generator with monotonically advancing time.
func steadyPipeline(tb testing.TB) (*Pipeline, func() timeseries.Record) {
	return steadyPipelineObserved(tb, nil)
}

// steadyPipelineObserved is steadyPipeline with an optional observer
// wired into the pipeline, for overhead and instrumentation tests.
func steadyPipelineObserved(tb testing.TB, o *obs.Observer) (*Pipeline, func() timeseries.Record) {
	return steadyPipelineFor(tb, steadyCases[0], o)
}

func steadyPipelineFor(tb testing.TB, c steadyCase, o *obs.Observer) (*Pipeline, func() timeseries.Record) {
	tb.Helper()
	tr, err := transform.New(c.kind, 12)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPipeline("veh-1", Config{
		Transformer:   tr,
		Detector:      c.det(tr.FeatureNames()),
		Thresholder:   c.th(),
		ProfileLength: 45,
		Filter:        func(*timeseries.Record) bool { return true },
		Observer:      o,
	})
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Date(2023, 4, 1, 9, 0, 0, 0, time.UTC)
	i := 0
	next := func() timeseries.Record {
		i++
		var v [obd.NumPIDs]float64
		v[obd.EngineRPM] = 1500 + float64(i%37)*20
		v[obd.Speed] = 40 + float64(i%23)
		v[obd.CoolantTemp] = 87 + float64(i%5)
		v[obd.IntakeTemp] = 24 + float64(i%11)
		v[obd.MAPIntake] = 38 + float64(i%13)
		v[obd.MAFAirFlowRate] = 9 + float64(i%7)
		return timeseries.Record{
			VehicleID: "veh-1",
			Time:      base.Add(time.Duration(i) * time.Minute),
			Values:    v,
		}
	}
	for p.State() != StateDetecting {
		if _, err := p.HandleRecord(next()); err != nil {
			tb.Fatal(err)
		}
	}
	// One scored sample warms the scratch buffers.
	for scored := p.ScoredSamples(); p.ScoredSamples() == scored; {
		if _, err := p.HandleRecord(next()); err != nil {
			tb.Fatal(err)
		}
	}
	return p, next
}

// TestPipelineSteadyStateZeroAlloc pins the hot-path acceptance
// criterion end to end: once the profile is fitted and scratch buffers
// are warm, a full tumbling window of HandleRecord calls — collect,
// emit, score, threshold — performs no heap allocation, whichever
// detector scores and whichever thresholder judges.
func TestPipelineSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range steadyCases {
		t.Run(c.name, func(t *testing.T) {
			p, next := steadyPipelineFor(t, c, nil)
			allocs := testing.AllocsPerRun(200, func() {
				for k := 0; k < 12; k++ {
					alarms, err := p.HandleRecord(next())
					if err != nil {
						t.Fatal(err)
					}
					if len(alarms) != 0 {
						t.Fatal("steady state should not alarm with its threshold out of reach")
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state window costs %.1f allocs, want 0", allocs)
			}
		})
	}
}

// BenchmarkPipelineSteadyState measures the per-record streaming cost of
// the detecting fast path; allocs/op must report 0.
func BenchmarkPipelineSteadyState(b *testing.B) {
	p, next := steadyPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.HandleRecord(next()); err != nil {
			b.Fatal(err)
		}
	}
}
