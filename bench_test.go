package pdm

// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus ablation benches for the design choices DESIGN.md calls out.
//
// The benchmarks run at the small fleet scale so `go test -bench=.`
// completes in minutes; `cmd/navarchos-bench` regenerates the exhibits
// at the larger bench scale. Wall-clock numbers per technique ×
// transform (Table 1) come from the BenchmarkTable1/* sub-benchmarks.

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/experiments"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/transform"
)

var (
	benchFleetOnce sync.Once
	benchFleet     *fleetsim.Fleet
	benchGridOnce  sync.Once
	benchGrid      *eval.GridResult
)

// fleetForBench generates the shared small fleet once.
func fleetForBench(b *testing.B) *fleetsim.Fleet {
	b.Helper()
	benchFleetOnce.Do(func() {
		benchFleet = fleetsim.Generate(fleetsim.SmallConfig())
	})
	return benchFleet
}

// gridForBench computes the shared small comparison grid once.
func gridForBench(b *testing.B) *eval.GridResult {
	b.Helper()
	f := fleetForBench(b)
	benchGridOnce.Do(func() {
		g, err := eval.RunGrid(eval.GridSpec{
			Records: f.Records,
			Events:  f.Events,
			Settings: map[string][]string{
				experiments.Setting26: f.EventVehicleIDs(),
				experiments.Setting40: f.AllVehicleIDs(),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		benchGrid = g
	})
	return benchGrid
}

func benchOpts(b *testing.B) *experiments.Options {
	return &experiments.Options{Fleet: fleetForBench(b)}
}

// BenchmarkFleetGeneration measures the synthetic-dataset substrate at
// the three shapes the repo benchmark sets up (benchmark/inputs.go
// fleetConfig): grid_eval's SmallConfig, the BenchConfig fleet40 of
// ingest_paced and score_heavy, and ingest_burst's 400 x 100.
func BenchmarkFleetGeneration(b *testing.B) {
	fleet400x100 := fleetsim.BenchConfig()
	fleet400x100.NumVehicles, fleet400x100.Days = 400, 100
	for _, c := range []struct {
		name string
		cfg  fleetsim.Config
	}{
		{"small", fleetsim.SmallConfig()},
		{"fleet40", fleetsim.BenchConfig()},
		{"fleet400x100", fleet400x100},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			records := 0
			for i := 0; i < b.N; i++ {
				records += len(fleetsim.Generate(c.cfg).Records)
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkFigure1 regenerates the DTC/event timeline exhibit.
func BenchmarkFigure1(b *testing.B) {
	opts := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkFigure2 regenerates the clustering + LOF outlier exhibit.
func BenchmarkFigure2(b *testing.B) {
	opts := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(opts, 1200)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkFigures45 regenerates the technique × transformation grid
// figures from the shared grid.
func BenchmarkFigures45(b *testing.B) {
	opts := benchOpts(b)
	opts.Grid = gridForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figures45(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard, experiments.Setting40)
		r.Render(io.Discard, experiments.Setting26)
	}
}

// BenchmarkFigure6 ranks the data transformations (critical diagrams).
func BenchmarkFigure6(b *testing.B) {
	opts := benchOpts(b)
	opts.Grid = gridForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkFigure7 ranks the detection techniques (critical diagrams).
func BenchmarkFigure7(b *testing.B) {
	opts := benchOpts(b)
	opts.Grid = gridForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkTable1 measures the Table 1 grid directly: the wall-clock of
// a full fit-and-score pass for every technique × transformation. The
// per-sub-benchmark ns/op values ARE the repository's Table 1.
func BenchmarkTable1(b *testing.B) {
	f := fleetForBench(b)
	for _, tech := range eval.PaperTechniques() {
		for _, kind := range transform.PaperKinds() {
			b.Run(tech.String()+"_"+kind.String(), func(b *testing.B) {
				spec := eval.GridSpec{
					Records:  f.Records,
					Events:   f.Events,
					Settings: map[string][]string{"s": f.EventVehicleIDs()},
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eval.CollectTraceSet(spec, tech, kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2 regenerates the complete-solution analytic table.
func BenchmarkTable2(b *testing.B) {
	opts := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkTable3 regenerates the reset-policy ablation table.
func BenchmarkTable3(b *testing.B) {
	opts := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// BenchmarkFigure8 regenerates the per-feature score trace exhibit.
func BenchmarkFigure8(b *testing.B) {
	opts := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(opts, "")
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// --- ablation benches for DESIGN.md's called-out choices ---------------

// ablate runs closest-pair on correlations over the small fleet with the
// given window/profile/reset policy and reports best-F0.5 as a metric.
func ablate(b *testing.B, window, profile int, policy core.ResetPolicy) {
	b.Helper()
	f := fleetForBench(b)
	spec := eval.GridSpec{
		Records:         f.Records,
		Events:          f.Events,
		Settings:        map[string][]string{"s": f.EventVehicleIDs()},
		Techniques:      []eval.Technique{eval.ClosestPair},
		Transforms:      []transform.Kind{transform.Correlation},
		PHs:             []time.Duration{30 * 24 * time.Hour},
		Window:          window,
		ProfileWindowed: profile,
		ResetPolicy:     policy,
	}
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunGrid(spec)
		if err != nil {
			b.Fatal(err)
		}
		best = res.Cells[0].Best.F05
	}
	b.ReportMetric(best, "F0.5")
}

// BenchmarkAblationWindow sweeps the correlation window length.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{8, 12, 20, 30} {
		b.Run(itoa2(w), func(b *testing.B) { ablate(b, w, 45, core.ResetOnAllEvents) })
	}
}

// BenchmarkAblationProfileLength sweeps the reference-profile size.
func BenchmarkAblationProfileLength(b *testing.B) {
	for _, p := range []int{25, 45, 75} {
		b.Run(itoa2(p), func(b *testing.B) { ablate(b, 12, p, core.ResetOnAllEvents) })
	}
}

// BenchmarkAblationResetPolicy compares the Table 3 design choice.
func BenchmarkAblationResetPolicy(b *testing.B) {
	b.Run("all-events", func(b *testing.B) { ablate(b, 12, 45, core.ResetOnAllEvents) })
	b.Run("repairs-only", func(b *testing.B) { ablate(b, 12, 45, core.ResetOnRepairsOnly) })
}

// BenchmarkStreamingThroughput measures the complete solution's pure
// per-record streaming cost (records/second of the default pipeline).
func BenchmarkStreamingThroughput(b *testing.B) {
	f := fleetForBench(b)
	vehicle := f.EventVehicleIDs()[0]
	var records []Record
	for _, r := range f.Records {
		if r.VehicleID == vehicle {
			records = append(records, r)
		}
	}
	b.ResetTimer()
	processed := 0
	for i := 0; i < b.N; i++ {
		p, err := NewDefaultPipeline(vehicle)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range records {
			if _, err := p.HandleRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		processed += len(records)
	}
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "records/s")
}

// itoa2 avoids strconv for tiny labels.
func itoa2(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for n > 0 {
		pos--
		buf[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[pos:])
}
