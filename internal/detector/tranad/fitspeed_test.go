package tranad

import (
	"fmt"
	"math/rand"
	"testing"
)

func mkref(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	ref := make([][]float64, n)
	for i := range ref {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		ref[i] = row
	}
	return ref
}

// benchCfg is a model three to four times wider than anything shipped,
// for the legacy-vs-default pair BenchmarkFitLegacy / BenchmarkFitFast/wide.
func benchCfg(legacy bool) Config {
	return Config{Window: 16, DModel: 48, Heads: 4, Epochs: 3, MaxWindows: 256, Seed: 1, LegacyFitKernels: legacy}
}

func BenchmarkFitLegacy(b *testing.B) {
	ref := mkref(200, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := New(benchCfg(true))
		if err := d.Fit(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitFast has two legs: a width-generality leg (the same
// per-window procedure as every fit, on benchCfg's wide model, whose
// only use is as the partner of BenchmarkFitLegacy), and what actually
// ships — eval.NewDetector's configuration (shippedConfig: Window 8,
// DModel 12, Heads 2) at the paper grid's two input widths, refitting
// one detector the way the fleet engine does. A kernel change has to
// show on the shipped legs to count; they also report ns/step, the
// cost of one trainStep whatever the reference length (ns/op ÷ training
// windows × epochs).
func BenchmarkFitFast(b *testing.B) {
	b.Run("wide", func(b *testing.B) {
		ref := mkref(200, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := New(benchCfg(false))
			if err := d.Fit(ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, dim := range shippedDims {
		b.Run(fmt.Sprintf("shipped/dim%d", dim), func(b *testing.B) {
			ref := mkref(300, dim)
			d := New(shippedConfig(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Fit(ref); err != nil {
					b.Fatal(err)
				}
			}
			steps := len(d.starts) * d.cfg.Epochs
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
		})
	}
}

// BenchmarkScore is one streamed record through the default scorer at
// the shipped configuration.
func BenchmarkScore(b *testing.B) {
	for _, dim := range shippedDims {
		b.Run(fmt.Sprintf("shipped/dim%d", dim), func(b *testing.B) {
			ref := mkref(300, dim)
			cfg := shippedConfig(1)
			cfg.Epochs = 1
			d := New(cfg)
			if err := d.Fit(ref); err != nil {
				b.Fatal(err)
			}
			s := make([]float64, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ScoreInto(ref[i%len(ref)], s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreRun scores the stream in runs of B consecutive samples
// through ScoreRunInto at the shipped configuration, reporting ns/score:
// B = 1 is ScoreInto, B = 128 the run the pipeline drains after a fit
// (core's runCap).
func BenchmarkScoreRun(b *testing.B) {
	for _, dim := range shippedDims {
		for _, run := range []int{1, 128} {
			b.Run(fmt.Sprintf("shipped/dim%d/B%d", dim, run), func(b *testing.B) {
				ref := mkref(300, dim)
				cfg := shippedConfig(1)
				cfg.Epochs = 1
				d := New(cfg)
				if err := d.Fit(ref); err != nil {
					b.Fatal(err)
				}
				dst := make([]float64, run)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := i * run % (len(ref) - run + 1)
					if err := d.ScoreRunInto(ref[at:at+run], dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/score")
			})
		}
	}
}
