package tranad

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The equivalence tests above run the package defaults (DModel 16, dim
// 3-5). These run what actually ships: eval.NewDetector's TranAD
// configuration at the two input widths the paper grid feeds it — 6
// (raw, delta, mean) and 15 (the correlation transform's feature
// pairs) — where every dense layer has a width (6, 12, 15, 18, 24) the
// pre-whole-layer kernels special-cased away.

// shippedConfig mirrors eval.NewDetector's TranAD configuration (eval
// imports this package, so it cannot be imported here).
func shippedConfig(seed int64) Config {
	return Config{Window: 8, DModel: 12, Heads: 2, Epochs: 5, MaxWindows: 256, Seed: seed}
}

var shippedDims = []int{6, 15}

func flatWeights(d *Detector) []float64 {
	var w []float64
	for _, p := range d.params() {
		w = append(w, p.W...)
	}
	return w
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestShippedConfigBitIdenticalToLegacy is TestFastFitBitIdenticalToLegacy
// at the shipped configuration: trained weights, a 200-sample score
// trace, the snapshot bytes and the continuation of a restored snapshot
// must all match the LegacyFitKernels oracle bit for bit.
func TestShippedConfigBitIdenticalToLegacy(t *testing.T) {
	for _, dim := range shippedDims {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			ref := synthRef(rand.New(rand.NewSource(3)), 160, dim)
			legacyCfg := shippedConfig(5)
			legacyCfg.LegacyFitKernels = true
			legacy, fast := New(legacyCfg), New(shippedConfig(5))
			for _, d := range []*Detector{legacy, fast} {
				if err := d.Fit(ref); err != nil {
					t.Fatal(err)
				}
			}
			requireSameBits(t, "weights", flatWeights(fast), flatWeights(legacy))
			requireSameBits(t, "scores", scoreStream(t, fast, 6, 200, dim), scoreStream(t, legacy, 6, 200, dim))

			snapL, err := legacy.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snapF, err := fast.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapF, snapL) {
				t.Fatal("snapshot bytes differ from the legacy detector's")
			}
			restored := New(shippedConfig(5))
			if err := restored.Restore(snapF); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "restored scores", scoreStream(t, restored, 7, 50, dim), scoreStream(t, legacy, 7, 50, dim))

			// A second cold fit re-initialises the same net and arena in
			// place: it must land on the weights a new detector trains.
			if err := fast.Fit(ref); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "refit weights", flatWeights(fast), flatWeights(legacy))
			// ... and so must a cold fit on a restored detector.
			if err := restored.Fit(ref); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "restored refit weights", flatWeights(restored), flatWeights(legacy))
		})
	}
}

// TestShippedSnapshotsFromParentCommit pins the bits across commits, not
// just across code paths: testdata/shipped_dim*.snap were written by the
// commit before the whole-layer kernels (shipped configuration at 2
// epochs, 150 reference rows, 13 samples scored). A fit today must
// produce those bytes exactly, and they must restore and continue like
// the detector that wrote them. The fixtures are amd64 bits: other
// architectures may fuse the scalar multiply-adds.
func TestShippedSnapshotsFromParentCommit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fixtures hold amd64 bits")
	}
	for _, dim := range shippedDims {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			want, err := os.ReadFile(fmt.Sprintf("testdata/shipped_dim%d.snap", dim))
			if err != nil {
				t.Fatal(err)
			}
			cfg := shippedConfig(5)
			cfg.Epochs = 2
			d := New(cfg)
			if err := d.Fit(synthRef(rand.New(rand.NewSource(3)), 150, dim)); err != nil {
				t.Fatal(err)
			}
			scoreStream(t, d, 61, 13, dim)
			got, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("a fresh fit no longer reproduces the parent commit's snapshot bytes")
			}
			restored := New(cfg)
			if err := restored.Restore(want); err != nil {
				t.Fatalf("parent commit's snapshot does not restore: %v", err)
			}
			requireSameBits(t, "continuation", scoreStream(t, restored, 62, 40, dim), scoreStream(t, d, 62, 40, dim))
		})
	}
}

// TestShippedConfigAllocFree: a warm ScoreInto allocates nothing, and
// neither does a second cold Fit — the net, every layer's scratch, the
// optimiser arena, the standardised reference and the seeded generator
// all belong to the detector and are reused.
func TestShippedConfigAllocFree(t *testing.T) {
	for _, dim := range shippedDims {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			ref := synthRef(rand.New(rand.NewSource(3)), 60, dim)
			cfg := shippedConfig(5)
			cfg.Epochs = 1
			d := New(cfg)
			if err := d.Fit(ref); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(3, func() {
				if err := d.Fit(ref); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("a second cold Fit allocates %v times, want 0", allocs)
			}

			x, s := make([]float64, dim), make([]float64, 1)
			stream := rand.New(rand.NewSource(43))
			score := func() {
				for j := range x {
					x[j] = stream.NormFloat64()
				}
				if err := d.ScoreInto(x, s); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ { // warm every ring slot and the scratch
				score()
			}
			if allocs := testing.AllocsPerRun(200, score); allocs != 0 {
				t.Fatalf("warm ScoreInto allocates %v times per record, want 0", allocs)
			}
			// The refit keeps the score window's rows, so the stream after
			// it is alloc-free from its first record.
			if err := d.Fit(ref); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, score); allocs != 0 {
				t.Fatalf("ScoreInto after a refit allocates %v times per record, want 0", allocs)
			}
		})
	}
}
