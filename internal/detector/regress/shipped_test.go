package regress

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/gbt"
)

// The tests here run what ships: eval.NewDetector's xgboost
// configuration (25 trees, depth 3) at the profile shapes the paper grid
// fits — 45 windowed rows × 15 correlation pairs, 45 × 6 (mean) and
// 900 × 6 (raw, delta) — where gbt sees 45-row or fully quantised
// columns, not the 2000 × 10 the histogram search was first tuned on.

// shippedConfig mirrors eval.NewDetector's xgboost configuration (eval
// imports this package, so it cannot be imported here).
func shippedConfig() gbt.Config { return gbt.Config{NumTrees: 25, MaxDepth: 3} }

// shippedProfile draws rows × dim values with one shared latent factor,
// so every channel is partly predictable from the others.
func shippedProfile(seed int64, rows, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ref := make([][]float64, rows)
	for i := range ref {
		row := make([]float64, dim)
		base := rng.NormFloat64()
		for j := range row {
			row[j] = base*float64(j%4+1)/4 + 0.5*rng.NormFloat64()
		}
		ref[i] = row
	}
	return ref
}

// shippedCases are the fits whose snapshot bytes testdata/ pins. "edge"
// is the profile the histogram layout is most likely to get wrong: a
// NaN row (binned past the column's last bin), a constant column (one
// bin, never a split) and a column with eight distinct values.
// "nan_full_bins" puts NaN rows in a column that uses all 256 bins,
// where their bin index wraps to 0.
var shippedCases = []struct {
	name string
	ref  func() [][]float64
}{
	{"dim15_rows45", func() [][]float64 { return shippedProfile(11, 45, 15) }},
	{"dim6_rows45", func() [][]float64 { return shippedProfile(12, 45, 6) }},
	{"dim6_rows900", func() [][]float64 { return shippedProfile(13, 900, 6) }},
	{"edge", func() [][]float64 {
		ref := shippedProfile(14, 60, 6)
		for i, row := range ref {
			row[3] = 2.5
			row[4] = float64(i * 7 % 8)
		}
		ref[17][2] = math.NaN()
		return ref
	}},
	{"nan_full_bins", func() [][]float64 {
		ref := shippedProfile(17, 300, 3)
		for i := 7; i < len(ref); i += 50 {
			ref[i][1] = math.NaN()
		}
		return ref
	}},
}

// TestShippedSnapshotsFromParentCommit pins every tree across commits:
// testdata/*.snap were written by the commit before the occupancy-sized
// histograms and the shared design matrix (51f0ec9); when η, λ, γ, the
// minimum child weight, subsampling and the seed became constants, the
// 56 bytes each regressor spent on them were cut out byte for byte and
// the tags moved to 16 and 'H', nothing refitted. A fit today must
// produce those bytes exactly at any fitpool size, and they must restore
// into a detector that scores like the one just fitted.
func TestShippedSnapshotsFromParentCommit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fixtures hold amd64 bits")
	}
	defer fitpool.SetWorkers(fitpool.Workers())
	for _, tc := range shippedCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.name + ".snap")
			if err != nil {
				t.Fatal(err)
			}
			ref := tc.ref()
			var d *Detector
			for _, workers := range []int{1, 4} {
				fitpool.SetWorkers(workers)
				d = New(nil, shippedConfig())
				if err := d.Fit(ref); err != nil {
					t.Fatal(err)
				}
				got, err := d.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("fitpool=%d: a fresh fit no longer reproduces the parent commit's snapshot bytes", workers)
				}
			}
			restored := New(nil, shippedConfig())
			if err := restored.Restore(want); err != nil {
				t.Fatalf("parent commit's snapshot does not restore: %v", err)
			}
			for _, x := range shippedProfile(16, 40, len(ref[0])) {
				a, err := d.Score(x)
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Score(x)
				if err != nil {
					t.Fatal(err)
				}
				for c := range a {
					if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
						t.Fatalf("channel %d: restored detector scores %v, fitted one %v", c, b[c], a[c])
					}
				}
			}
		})
	}
}

// BenchmarkRegressFit is one detector fit — dim boosters off one design
// — at the two profile shapes the paper grid fits most.
func BenchmarkRegressFit(b *testing.B) {
	for _, bc := range []struct {
		name      string
		rows, dim int
	}{
		{"dim15_rows45", 45, 15},
		{"dim6_rows900", 900, 6},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ref := shippedProfile(11, bc.rows, bc.dim)
			d := New(nil, shippedConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Fit(ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRegressFitAllocBound: a fit allocates per booster and per tree,
// never per row — the reference is copied once into the shared design,
// not once per channel with a slice per row (a 900-row, 6-channel fit
// used to allocate ~12 700 times; 5 400 of them were dropped-column
// rows).
func TestRegressFitAllocBound(t *testing.T) {
	defer fitpool.SetWorkers(fitpool.Workers())
	fitpool.SetWorkers(1) // the fan-out allocates per goroutine
	const dim = 6
	fitAllocs := func(rows int) float64 {
		ref := shippedProfile(11, rows, dim)
		d := New(nil, shippedConfig())
		return testing.AllocsPerRun(3, func() {
			if err := d.Fit(ref); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := fitAllocs(45), fitAllocs(900)
	t.Logf("%v allocations at 45 rows, %v at 900", short, long)
	if perBooster := long / dim; perBooster > float64(shippedConfig().NumTrees)+50 {
		t.Fatalf("a 900-row fit allocates %.0f times per booster, want <= one per tree + 50", perBooster)
	}
	if long > short+dim {
		t.Fatalf("allocations grow with the rows: %v at 45, %v at 900", short, long)
	}
}

// TestSnapshotRefusesRetiredTags: regress tag 13 and gbt tag 'G' were
// the layout whose every regressor also carried η, λ, γ, the minimum
// child weight, the two subsample fractions and a seed. A snapshot that
// carries either is refused, naming the tag.
func TestSnapshotRefusesRetiredTags(t *testing.T) {
	d := New(nil, shippedConfig())
	if err := d.Fit(shippedProfile(12, 45, 6)); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The first regressor's tag follows the detector tag, the fitted
	// flag, the channel count and the six length-prefixed names.
	gbtAt := 1 + 1 + 8
	for _, n := range d.ChannelNames() {
		gbtAt += 8 + len(n)
	}
	for _, tc := range []struct {
		name   string
		at     int
		tag    uint8
		errMsg string
	}{
		{"regress-13", 0, 13, "tag 13, want 16"},
		{"gbt-G", gbtAt, 'G', "tag 0x47, want 0x48"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			retired := bytes.Clone(snap)
			retired[tc.at] = tc.tag
			err := New(nil, shippedConfig()).Restore(retired)
			if err == nil || !strings.Contains(err.Error(), tc.errMsg) {
				t.Fatalf("err = %v, want one naming %q", err, tc.errMsg)
			}
		})
	}
	if err := New(nil, shippedConfig()).Restore(snap); err != nil {
		t.Fatalf("the unedited snapshot: %v", err)
	}
}
