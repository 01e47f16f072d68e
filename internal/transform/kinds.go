package transform

import (
	"fmt"
	"math"
	"time"

	"github.com/navarchos/pdm/internal/dsp"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// maxGap is the largest time gap between consecutive records that a
// stateful transformer will bridge. Records further apart belong to
// different trips (or different days, with different weather and driver
// behaviour); correlating or differencing across such a gap produces
// artefacts — e.g. an overnight −60 °C coolant "delta" — so the buffer
// is restarted instead.
const maxGap = 45 * time.Minute

// gapGuard tracks the last accepted record time and reports whether a
// new record is separated from it by more than maxGap.
type gapGuard struct {
	last time.Time
}

func (g *gapGuard) broken(t time.Time) bool {
	defer func() { g.last = t }()
	return !g.last.IsZero() && t.Sub(g.last) > maxGap
}

func (g *gapGuard) reset() { g.last = time.Time{} }

// corrTransformer emits, for each tumbling window of records, the
// f·(f−1)/2 pairwise Pearson correlations between the PID signals — the
// paper's winning transformation. Tumbling (non-overlapping) windows
// match the paper's execution-time profile: the correlation stream is
// roughly window-times smaller than the raw stream (Table 1).
//
// Instead of materialising window columns and re-deriving the moments
// pairwise on every Emit, the transformer maintains running sums — per
// PID Σx and per pair Σxy — updated in O(f²) per record. Values are
// shifted by the first record of the current window before accumulation:
// any fixed shift leaves the covariance algebra exact, and it keeps the
// sums of a constant signal at exactly zero, so "no variance → r = 0"
// holds bit-for-bit like the two-pass mat.Pearson it replaces. A small
// ring of shifted records is kept only to support eviction if a caller
// pushes past a full window without emitting.
type corrTransformer struct {
	window int
	gap    gapGuard

	ring  [][obd.NumPIDs]float64 // shifted values, for eviction only
	next  int
	n     int                  // records currently accumulated (≤ window)
	shift [obd.NumPIDs]float64 // per-PID offset fixed at window start

	sum  [obd.NumPIDs]float64              // Σ(x−shift) per PID
	prod [obd.NumPIDs][obd.NumPIDs]float64 // Σ(x−shift)(y−shift), i ≤ j
}

func newCorrelation(window int) *corrTransformer {
	return &corrTransformer{
		window: window,
		ring:   make([][obd.NumPIDs]float64, window),
	}
}

func (c *corrTransformer) Name() string { return Correlation.String() }

func (c *corrTransformer) Dim() int {
	n := int(obd.NumPIDs)
	return n * (n - 1) / 2
}

func (c *corrTransformer) FeatureNames() []string {
	names := obd.PIDNames()
	out := make([]string, 0, c.Dim())
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			out = append(out, fmt.Sprintf("corr(%s,%s)", names[i], names[j]))
		}
	}
	return out
}

func (c *corrTransformer) Collect(r timeseries.Record) {
	if c.gap.broken(r.Time) {
		c.clear()
	}
	if c.n == 0 {
		c.shift = r.Values
	}
	var v [obd.NumPIDs]float64
	for i := range v {
		v[i] = r.Values[i] - c.shift[i]
	}
	if c.n == c.window {
		// Sliding overflow (a caller pushed past a full window without
		// emitting): evict the oldest record's contributions.
		old := c.ring[c.next]
		for i := 0; i < int(obd.NumPIDs); i++ {
			c.sum[i] -= old[i]
			for j := i; j < int(obd.NumPIDs); j++ {
				c.prod[i][j] -= old[i] * old[j]
			}
		}
		c.n--
	}
	c.ring[c.next] = v
	c.next = (c.next + 1) % c.window
	c.n++
	for i := 0; i < int(obd.NumPIDs); i++ {
		c.sum[i] += v[i]
		for j := i; j < int(obd.NumPIDs); j++ {
			c.prod[i][j] += v[i] * v[j]
		}
	}
}

func (c *corrTransformer) Ready() bool { return c.n == c.window }

// EmitInto derives the correlations from the running moments,
// n·Σxy − Σx·Σy over the geometric mean of the variances, then restarts
// the accumulator (tumbling windows).
func (c *corrTransformer) EmitInto(dst []float64) {
	n := float64(c.n)
	k := 0
	for i := 0; i < int(obd.NumPIDs); i++ {
		for j := i + 1; j < int(obd.NumPIDs); j++ {
			sxx := n*c.prod[i][i] - c.sum[i]*c.sum[i]
			syy := n*c.prod[j][j] - c.sum[j]*c.sum[j]
			sxy := n*c.prod[i][j] - c.sum[i]*c.sum[j]
			r := 0.0
			if sxx > 0 && syy > 0 {
				r = sxy / math.Sqrt(sxx*syy)
				// Clamp tiny floating-point excursions outside [-1, 1].
				if r > 1 {
					r = 1
				} else if r < -1 {
					r = -1
				}
			}
			dst[k] = r
			k++
		}
	}
	c.clear()
}

// clear restarts the accumulator for the next tumbling window.
func (c *corrTransformer) clear() {
	c.n = 0
	c.next = 0
	c.sum = [obd.NumPIDs]float64{}
	c.prod = [obd.NumPIDs][obd.NumPIDs]float64{}
}

func (c *corrTransformer) Reset() {
	c.clear()
	c.gap.reset()
}

// rawTransformer passes each record's six PID values straight through.
type rawTransformer struct {
	cur  [obd.NumPIDs]float64
	have bool
}

func newRaw() *rawTransformer { return &rawTransformer{} }

func (t *rawTransformer) Name() string           { return Raw.String() }
func (t *rawTransformer) Dim() int               { return int(obd.NumPIDs) }
func (t *rawTransformer) FeatureNames() []string { return obd.PIDNames() }

func (t *rawTransformer) Collect(r timeseries.Record) {
	t.cur = r.Values
	t.have = true
}

func (t *rawTransformer) Ready() bool { return t.have }

func (t *rawTransformer) EmitInto(dst []float64) {
	t.have = false
	copy(dst, t.cur[:])
}

func (t *rawTransformer) Reset() { t.have = false }

// deltaTransformer emits the first difference of consecutive records —
// the discrete derivative transformation of Giobergia et al. that the
// paper includes as a candidate.
type deltaTransformer struct {
	prev    [obd.NumPIDs]float64
	cur     [obd.NumPIDs]float64
	n       int
	pending bool
	gap     gapGuard
}

func newDelta() *deltaTransformer { return &deltaTransformer{} }

func (t *deltaTransformer) Name() string { return Delta.String() }
func (t *deltaTransformer) Dim() int     { return int(obd.NumPIDs) }

func (t *deltaTransformer) FeatureNames() []string {
	names := obd.PIDNames()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "d(" + n + ")"
	}
	return out
}

func (t *deltaTransformer) Collect(r timeseries.Record) {
	if t.gap.broken(r.Time) {
		t.n = 0
		t.pending = false
	}
	if t.n > 0 {
		t.prev = t.cur
	}
	t.cur = r.Values
	t.n++
	t.pending = t.n >= 2
}

func (t *deltaTransformer) Ready() bool { return t.pending }

func (t *deltaTransformer) EmitInto(dst []float64) {
	t.pending = false
	for i := range dst[:obd.NumPIDs] {
		dst[i] = t.cur[i] - t.prev[i]
	}
}

func (t *deltaTransformer) Reset() {
	t.n = 0
	t.pending = false
	t.gap.reset()
}

// windowed is the tumbling window of raw records that the mean,
// histogram and spectral transforms embed: it owns Collect, Ready,
// Reset and the snapshot seam, and each embedding transform adds only
// its Dim, FeatureNames and EmitInto. tag is the embedding transform's
// snapshot payload tag.
type windowed struct {
	tag uint8
	win *timeseries.Window
	gap gapGuard
}

func newWindowed(tag uint8, window int) windowed {
	return windowed{tag: tag, win: timeseries.NewWindow(window)}
}

func (w *windowed) Collect(r timeseries.Record) {
	if w.gap.broken(r.Time) {
		w.win.Reset()
	}
	w.win.Push(r)
}

func (w *windowed) Ready() bool { return w.win.Full() }

func (w *windowed) Reset() {
	w.win.Reset()
	w.gap.reset()
}

// take returns the window's PID columns oldest-first and empties it for
// the next tumbling window.
func (w *windowed) take() [][]float64 {
	cols := w.win.Columns()
	w.win.Reset()
	return cols
}

// meanTransformer emits per-PID means over tumbling windows (the same
// windows as the correlation transform, per Section 3.2).
type meanTransformer struct{ windowed }

func newMeanAgg(window int) *meanTransformer {
	return &meanTransformer{newWindowed(meanTag, window)}
}

func (t *meanTransformer) Name() string { return MeanAgg.String() }
func (t *meanTransformer) Dim() int     { return int(obd.NumPIDs) }

func (t *meanTransformer) FeatureNames() []string {
	names := obd.PIDNames()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "mean(" + n + ")"
	}
	return out
}

func (t *meanTransformer) EmitInto(dst []float64) {
	for i, col := range t.take() {
		dst[i] = mat.Mean(col)
	}
}

// histTransformer emits, per tumbling window, a normalised occupancy
// histogram of each PID over its physical envelope — the "histograms"
// alternative of Section 3.1 and a step toward the paper's future-work
// idea of discretising signals into artificial events.
type histTransformer struct {
	windowed
	bins int
}

func newHistogram(window, bins int) *histTransformer {
	return &histTransformer{windowed: newWindowed(histTag, window), bins: bins}
}

func (t *histTransformer) Name() string { return Histogram.String() }
func (t *histTransformer) Dim() int     { return int(obd.NumPIDs) * t.bins }

func (t *histTransformer) FeatureNames() []string {
	names := obd.PIDNames()
	out := make([]string, 0, t.Dim())
	for _, n := range names {
		for b := 0; b < t.bins; b++ {
			out = append(out, fmt.Sprintf("hist(%s)[%d]", n, b))
		}
	}
	return out
}

func (t *histTransformer) EmitInto(dst []float64) {
	for p, col := range t.take() {
		env := obd.Envelope(obd.PID(p))
		counts := dst[p*t.bins : (p+1)*t.bins]
		clear(counts)
		for _, v := range col {
			frac := (v - env.Min) / (env.Max - env.Min)
			b := int(frac * float64(t.bins))
			if b < 0 {
				b = 0
			}
			if b >= t.bins {
				b = t.bins - 1
			}
			counts[b]++
		}
		inv := 1 / float64(len(col))
		for i := range counts {
			counts[i] *= inv
		}
	}
}

// spectralTransformer emits, per tumbling window, normalised FFT band
// energies of each PID — the frequency-domain alternative of
// Section 3.1.
type spectralTransformer struct {
	windowed
	bands int
}

func newSpectral(window, bands int) *spectralTransformer {
	return &spectralTransformer{windowed: newWindowed(spectralTag, window), bands: bands}
}

func (t *spectralTransformer) Name() string { return Spectral.String() }
func (t *spectralTransformer) Dim() int     { return int(obd.NumPIDs) * t.bands }

func (t *spectralTransformer) FeatureNames() []string {
	names := obd.PIDNames()
	out := make([]string, 0, t.Dim())
	for _, n := range names {
		for b := 0; b < t.bands; b++ {
			out = append(out, fmt.Sprintf("spec(%s)[%d]", n, b))
		}
	}
	return out
}

func (t *spectralTransformer) EmitInto(dst []float64) {
	for p, col := range t.take() {
		be, err := dsp.BandEnergies(col, t.bands)
		if err != nil {
			be = make([]float64, t.bands)
		}
		copy(dst[p*t.bands:(p+1)*t.bands], be)
	}
}
