package tranad

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
)

// coupledSample returns a 4-dim sample whose features are linearly
// coupled (x2 = x0+x1, x3 = x0−x1) plus small noise — structure a
// reconstruction model can learn.
func coupledSample(rng *rand.Rand) []float64 {
	a, b := rng.NormFloat64(), rng.NormFloat64()
	return []float64{
		a + 0.02*rng.NormFloat64(),
		b + 0.02*rng.NormFloat64(),
		a + b + 0.02*rng.NormFloat64(),
		a - b + 0.02*rng.NormFloat64(),
	}
}

// brokenSample has the same marginals but a broken coupling: x2 is
// independent of x0+x1.
func brokenSample(rng *rand.Rand) []float64 {
	a, b := rng.NormFloat64(), rng.NormFloat64()
	return []float64{a, b, 1.5 * rng.NormFloat64(), a - b}
}

func coupledRef(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = coupledSample(rng)
	}
	return out
}

func TestLifecycleAndErrors(t *testing.T) {
	d := New(Config{})
	if d.Name() != "tranad" || d.Channels() != 1 || d.ChannelNames()[0] != "reconstruction" {
		t.Error("metadata wrong")
	}
	if _, err := d.Score([]float64{1}); err != detector.ErrNotFitted {
		t.Error("unfitted Score should error")
	}
	if err := d.Fit(nil); err != detector.ErrEmptyReference {
		t.Error("empty ref should error")
	}
	if err := d.Fit([][]float64{{1, 2}, {3}}); err != detector.ErrDimension {
		t.Error("ragged ref should error")
	}
	if err := d.Fit(coupledRef(120, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score([]float64{1}); err != detector.ErrDimension {
		t.Error("dim mismatch should error")
	}
	// Warm-up: first Window-1 scores are zero.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 7; i++ { // default window 8
		s, err := d.Score(coupledSample(rng))
		if err != nil {
			t.Fatal(err)
		}
		if s[0] != 0 {
			t.Errorf("warm-up score %d = %v, want 0", i, s[0])
		}
	}
	s, _ := d.Score(coupledSample(rng))
	if s[0] <= 0 {
		t.Errorf("full-window score = %v, want > 0", s[0])
	}
	// A refit at another input width rebuilds the network: it must land
	// on the weights of a detector that never saw the first width.
	ref6 := synthRef(rand.New(rand.NewSource(3)), 100, 6)
	fresh := New(Config{})
	if err := d.Fit(ref6); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Fit(ref6); err != nil {
		t.Fatal(err)
	}
	for pi, p := range d.params() {
		for j, w := range p.W {
			if math.Float64bits(w) != math.Float64bits(fresh.params()[pi].W[j]) {
				t.Fatalf("refit at a new width: param %d weight %d differs from a fresh fit", pi, j)
			}
		}
	}
	if _, err := d.Score(ref6[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsBrokenCoupling(t *testing.T) {
	d := New(Config{Epochs: 12, Seed: 3})
	if err := d.Fit(coupledRef(300, 3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	// Healthy stream scores.
	var healthy []float64
	for i := 0; i < 80; i++ {
		s, _ := d.Score(coupledSample(rng))
		if s[0] > 0 {
			healthy = append(healthy, s[0])
		}
	}
	// Broken-coupling stream scores (after warm-up refill).
	var broken []float64
	for i := 0; i < 80; i++ {
		s, _ := d.Score(brokenSample(rng))
		if i >= 8 && s[0] > 0 {
			broken = append(broken, s[0])
		}
	}
	hm, bm := mat.Mean(healthy), mat.Mean(broken)
	if !(bm > 2*hm) {
		t.Errorf("broken-coupling mean score %v not clearly above healthy %v", bm, hm)
	}
}

func TestDeterministicTraining(t *testing.T) {
	ref := coupledRef(150, 7)
	mk := func() []float64 {
		d := New(Config{Seed: 9, Epochs: 4})
		if err := d.Fit(ref); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		var out []float64
		for i := 0; i < 20; i++ {
			s, _ := d.Score(coupledSample(rng))
			out = append(out, s[0])
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShortReference(t *testing.T) {
	// Fewer samples than one window must still train and score.
	d := New(Config{Window: 10, Epochs: 3})
	if err := d.Fit(coupledRef(5, 11)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 15; i++ {
		s, err := d.Score(coupledSample(rng))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(s[0]) || math.IsInf(s[0], 0) {
			t.Fatalf("score %d = %v", i, s[0])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.Window != 8 || c.DModel != 16 || c.Heads != 2 || c.Epochs != 8 || c.LR != 0.005 || c.MaxWindows != 512 || c.Seed != 1 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{DModel: 15, Heads: 4}
	c.defaults()
	if c.DModel%c.Heads != 0 {
		t.Errorf("DModel %d not adjusted to Heads %d", c.DModel, c.Heads)
	}
}

// TestTrainingWindowCount pins how many windows a fit trains on.
// Config.MaxWindows reads like a cap and is not one — the stride is the
// integer quotient total/MaxWindows — and every golden file, snapshot
// and benchmark fixture holds floats trained on these counts: a fit
// that "repairs" the cap moves all of them without failing anything
// else first.
func TestTrainingWindowCount(t *testing.T) {
	for _, c := range []struct{ rows, window, maxWindows, want int }{
		{900, 8, 256, 298}, // a whole shipped raw profile: stride 893/256 = 3
		{675, 8, 256, 334}, // its 75 % head, what the pipeline fits on: stride 668/256 = 2
		{34, 8, 256, 27},   // the head of a 45-sample windowed profile: every window
		{300, 8, 256, 293}, // 293 windows > 256, stride 293/256 = 1: all of them
		{256 + 7, 8, 256, 256},
		{5, 8, 256, 1}, // shorter than a window: the whole reference, once
	} {
		d := New(Config{Window: c.window, MaxWindows: c.maxWindows, Epochs: 1, DModel: 4})
		if err := d.Fit(mkref(c.rows, 3)); err != nil {
			t.Fatal(err)
		}
		if got := len(d.starts); got != c.want {
			t.Errorf("%d rows, window %d, MaxWindows %d: %d training windows, want %d",
				c.rows, c.window, c.maxWindows, got, c.want)
		}
	}
}
