package tranad

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scoreStream feeds n pseudo-random samples (deterministic in seed) to
// d and returns every score.
func scoreStream(t *testing.T, d *Detector, seed int64, n, dim int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n)
	x := make([]float64, dim)
	s := make([]float64, 1)
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if err := d.ScoreInto(x, s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s[0])
	}
	return out
}

// TestScorePathsBitIdentical trains two identically seeded detectors —
// legacy kernels and the default scorer — and requires
// Float64bits-identical scores across a long stream. The default scorer
// must be a strict arithmetic subset of the legacy full-window pass: any
// reassociation or skipped operation shows up here.
func TestScorePathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := synthRef(rng, 140, 5)

	mk := func(legacy bool) *Detector {
		d := New(Config{Epochs: 3, Seed: 7, LegacyFitKernels: legacy})
		if err := d.Fit(ref); err != nil {
			t.Fatal(err)
		}
		return d
	}
	sl := scoreStream(t, mk(true), 23, 80, 5)
	sr := scoreStream(t, mk(false), 23, 80, 5)
	for i := range sl {
		if math.Float64bits(sl[i]) != math.Float64bits(sr[i]) {
			t.Fatalf("score %d: default %v differs from legacy %v", i, sr[i], sl[i])
		}
	}
}

// TestScoreRunMatchesScoreInto holds ScoreRunInto to ScoreInto bit for
// bit at the shipped configuration, both input widths: one detector
// scores a stream a sample at a time, an identically fitted one scores
// it in runs of 1, 9 (straddling the window's warm-up), 7, 8, 127, 128,
// 129 and 1000, then both are snapshotted and restored into fresh
// detectors (every cached projection invalidated) which continue in runs
// of 9 and 128 against single samples. Some samples carry a NaN or an
// infinity, which must poison the same scores with the same bits. The
// snapshots after each leg must match byte for byte.
func TestScoreRunMatchesScoreInto(t *testing.T) {
	for _, dim := range shippedDims {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			ref := synthRef(rand.New(rand.NewSource(3)), 120, dim)
			cfg := shippedConfig(5)
			cfg.Epochs = 1
			single, runs := New(cfg), New(cfg)
			for _, d := range []*Detector{single, runs} {
				if err := d.Fit(ref); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(11))
			stream := func(n int) [][]float64 {
				xs := make([][]float64, n)
				for i := range xs {
					xs[i] = make([]float64, dim)
					for j := range xs[i] {
						xs[i][j] = rng.NormFloat64() * 2
					}
					if rng.Intn(97) == 0 {
						xs[i][rng.Intn(dim)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					}
				}
				return xs
			}
			leg := func(what string, single, runs *Detector, lengths []int) {
				t.Helper()
				for _, n := range lengths {
					xs := stream(n)
					got := make([]float64, n)
					if err := runs.ScoreRunInto(xs, got); err != nil {
						t.Fatal(err)
					}
					want := make([]float64, n)
					for i, x := range xs {
						if err := single.ScoreInto(x, want[i:i+1]); err != nil {
							t.Fatal(err)
						}
					}
					requireSameBits(t, fmt.Sprintf("%s, run of %d", what, n), got, want)
				}
				a, err := single.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := runs.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: snapshots differ", what)
				}
			}
			leg("fresh fit", single, runs, []int{1, 9, 7, 8, 127, 128, 129, 1000})

			snap, err := runs.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			single, runs = New(cfg), New(cfg)
			for _, d := range []*Detector{single, runs} {
				if err := d.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			leg("restored", single, runs, []int{9, 128})
		})
	}
}

// TestScoreLastRowSurvivesRestore checkpoints the default detector
// mid-stream (with a warm projection cache), restores into a fresh
// instance, and requires the continuation to match the uninterrupted
// stream bit for bit — the Snapshotter contract, now covering the
// cached-projection invalidation in Restore.
func TestScoreLastRowSurvivesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ref := synthRef(rng, 120, 4)

	d := New(Config{Epochs: 2, Seed: 3})
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	stream := rand.New(rand.NewSource(31))
	samples := make([][]float64, 60)
	for i := range samples {
		row := make([]float64, 4)
		for j := range row {
			row[j] = stream.NormFloat64()
		}
		samples[i] = row
	}

	want := make([]float64, 0, len(samples))
	s := make([]float64, 1)
	var snap []byte
	for i, x := range samples {
		if i == 25 {
			var err error
			if snap, err = d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.ScoreInto(x, s); err != nil {
			t.Fatal(err)
		}
		want = append(want, s[0])
	}

	re := New(Config{Epochs: 2, Seed: 3})
	if err := re.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < len(samples); i++ {
		if err := re.ScoreInto(samples[i], s); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s[0]) != math.Float64bits(want[i]) {
			t.Fatalf("restored score %d differs: got %v want %v", i, s[0], want[i])
		}
	}
}

// TestScoreIntoAllocFree pins the zero-allocation contract of the warm
// default scoring path.
func TestScoreIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ref := synthRef(rng, 100, 6)
	t.Run("last-row", func(t *testing.T) {
		d := New(Config{Epochs: 2, Seed: 5})
		if err := d.Fit(ref); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 6)
		s := make([]float64, 1)
		stream := rand.New(rand.NewSource(43))
		next := func() {
			for j := range x {
				x[j] = stream.NormFloat64()
			}
		}
		// Warm every ring slot, the scratch and the kernels.
		for i := 0; i < 32; i++ {
			next()
			if err := d.ScoreInto(x, s); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			next()
			if err := d.ScoreInto(x, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm ScoreInto allocates %v times per record", allocs)
		}
	})
}

// TestScoreWrapperMatchesScoreInto keeps the allocating Score in lock
// step with ScoreInto (it is a thin wrapper, but the equivalence is
// what callers of the plain Detector interface rely on).
func TestScoreWrapperMatchesScoreInto(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ref := synthRef(rng, 90, 3)
	a := New(Config{Epochs: 2, Seed: 13})
	b := New(Config{Epochs: 2, Seed: 13})
	if err := a.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(ref); err != nil {
		t.Fatal(err)
	}
	stream := rand.New(rand.NewSource(59))
	x := make([]float64, 3)
	s := make([]float64, 1)
	for i := 0; i < 40; i++ {
		for j := range x {
			x[j] = stream.NormFloat64()
		}
		got, err := a.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.ScoreInto(x, s); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0]) != math.Float64bits(s[0]) {
			t.Fatalf("sample %d: Score %v vs ScoreInto %v", i, got[0], s[0])
		}
	}
}
