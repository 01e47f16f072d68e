package gbt

import (
	"math/bits"
	"sort"

	"github.com/navarchos/pdm/internal/mat"
)

// maxBins is the histogram resolution of the binned split search. With
// at most maxBins distinct values per feature the binning is lossless:
// every distinct value gets its own bin and the candidate thresholds are
// exactly the midpoints the exact greedy scan would propose.
const maxBins = 256

// occWords is the length of one feature's bin-occupancy bitmap.
const occWords = maxBins / 64

// column is one feature of a Design: its raw values, and their one-off
// mapping to uint8 bin indices. lo[k] / hi[k] record the smallest and
// largest raw value landing in bin k, so candidate thresholds stay
// midpoints in data space; len(lo) is the number of occupied bins.
type column struct {
	vals   []float64 // [row] -> raw value
	binned []uint8   // [row] -> bin index
	lo, hi []float64 // [bin] -> value range of the bin
}

// Design is a design matrix held by column and binned once: every tree
// node of every booster trained on it searches splits over per-bin
// gradient histograms instead of re-walking sorted rows. It is read-only
// after NewDesign, so boosters for different targets share one Design
// across goroutines.
type Design struct {
	cols []column
}

// NewDesign bins every column of rows, which must be non-empty and
// rectangular (Train and regress.Fit check, and return their own typed
// errors). Columns with more than maxBins distinct values are quantised
// by spreading the distinct values evenly over maxBins bins
// (equal-frequency over distinct values), which keeps outliers from
// collapsing the bulk of the distribution into one bin.
//
// A NaN compares false with every bin edge, so its row is binned one
// past the column's last bin: into the overflow slot every node
// histogram reserves behind each feature's bins. Such a row counts in
// its node's totals, is never a split candidate, and goes right at
// every split of that column. A column with all maxBins bins in use has
// no index left for it: uint8(256) wraps the row into bin 0. Both are
// kept as first shipped; refusing NaN is the wire boundary's job.
func NewDesign(rows [][]float64) *Design {
	n, dim := len(rows), len(rows[0])
	m := &Design{cols: make([]column, dim)}
	vals := make([]float64, n*dim)
	binned := make([]uint8, n*dim)
	sorted := make([]float64, n)
	distinct := make([]float64, 0, n)
	for f := range m.cols {
		col := vals[f*n : (f+1)*n : (f+1)*n]
		for i, row := range rows {
			col[i] = row[f]
		}
		copy(sorted, col)
		sort.Float64s(sorted)
		distinct = distinct[:0]
		for i, v := range sorted {
			if i == 0 || v != distinct[len(distinct)-1] {
				distinct = append(distinct, v)
			}
		}
		nb := min(len(distinct), maxBins)
		edges := make([]float64, 2*nb)
		lo, hi := edges[:nb:nb], edges[nb:]
		// Distinct value j lands in bin j*nb/len(distinct): identity when
		// the binning is lossless, equal-frequency over distinct values
		// otherwise.
		for j, v := range distinct {
			k := j * nb / len(distinct)
			if j == 0 || k != (j-1)*nb/len(distinct) {
				lo[k] = v
			}
			hi[k] = v
		}
		// A value's bin is the first one whose hi covers it.
		bin := binned[f*n : (f+1)*n : (f+1)*n]
		for i, v := range col {
			bin[i] = uint8(sort.SearchFloat64s(hi, v))
		}
		m.cols[f] = column{vals: col, binned: bin, lo: lo, hi: hi}
	}
	return m
}

// TrainColumn fits column target of the design from all its other
// columns, with the histogram split search (cfg.LegacyFitKernels is not
// consulted: the exact search takes row-major input, through Train).
func (m *Design) TrainColumn(target int, cfg Config) *Regressor {
	cfg.defaults()
	cols := make([]column, 0, len(m.cols)-1)
	cols = append(append(cols, m.cols[:target]...), m.cols[target+1:]...)
	return train(cols, m.cols[target].vals, cfg)
}

// train boosts on the given feature columns with the histogram search.
func train(cols []column, y []float64, cfg Config) *Regressor {
	return boost(y, len(cols), cfg, newHistBuilder(cols, cfg).build)
}

// nodeHist is one tree node's gradient histogram: per feature, per bin,
// the gradient sum and the sample count (the hessian of squared loss).
// Feature f owns slots off[f]..off[f+1] — one per occupied bin of its
// column, then the overflow slot — so a histogram's length, and the cost
// of zeroing and subtracting one, follows the data, not maxBins.
type nodeHist struct {
	bins []float64 // [2*slot] gradient sum, [2*slot+1] count
	occ  []uint64  // occWords per feature: bit k set once a row is filled into slot k
}

func (h *nodeHist) zero() {
	clear(h.bins)
	clear(h.occ)
}

// subtract removes child from h in place — the sibling trick: the
// larger child's histogram is the parent's minus the smaller child's,
// computed in O(bins) instead of O(rows). Every tree depends on exactly
// this arithmetic (each bin summed in row order, the large child by
// subtraction; x + -1·y is x − y bit for bit), so it is not to be
// reordered. occ keeps the parent's bits, a superset of the large
// child's bins: the scan checks the count.
func (h *nodeHist) subtract(child *nodeHist) {
	mat.AddScaled(h.bins, -1, child.bins)
}

// histBuilder grows the trees of one booster with binned split search.
type histBuilder struct {
	cols []column // the booster's features
	off  []int    // [feature] -> first histogram slot; off[len(cols)] = slots in all
	cfg  Config

	// Per tree, set by build.
	grad []float64
	out  []float64
	tr   tree // grown in builder-owned nodes; build returns a copy

	free  []*nodeHist // recycled node histograms
	rows  []int       // the tree's rows, partitioned in place as it grows
	right []int       // partition scratch: a node's right-going rows
}

func newHistBuilder(cols []column, cfg Config) *histBuilder {
	b := &histBuilder{cols: cols, cfg: cfg, off: make([]int, len(cols)+1)}
	for f := range cols {
		b.off[f+1] = b.off[f] + len(cols[f].lo) + 1
	}
	return b
}

func (b *histBuilder) get() *nodeHist {
	if n := len(b.free); n > 0 {
		h := b.free[n-1]
		b.free = b.free[:n-1]
		h.zero()
		return h
	}
	return &nodeHist{bins: make([]float64, 2*b.off[len(b.cols)]), occ: make([]uint64, len(b.cols)*occWords)}
}

func (b *histBuilder) put(h *nodeHist) {
	if h != nil {
		b.free = append(b.free, h)
	}
}

// fill accumulates the histogram of rows for every feature.
func (b *histBuilder) fill(h *nodeHist, rows []int) {
	grad := b.grad
	for f := range b.cols {
		binned := b.cols[f].binned
		bins := h.bins[2*b.off[f] : 2*b.off[f+1]]
		occ := (*[occWords]uint64)(h.occ[f*occWords:])
		for _, i := range rows {
			k := binned[i]
			bins[2*int(k)] += grad[i]
			bins[2*int(k)+1]++
			occ[k>>6] |= 1 << (k & 63)
		}
	}
}

// build grows one tree on grad over every row and feature, and writes
// to out the weight of the leaf the grower left each row in.
func (b *histBuilder) build(grad, out []float64) tree {
	b.grad, b.out = grad, out
	b.tr.nodes = b.tr.nodes[:0]
	if cap(b.rows) < len(grad) {
		b.rows, b.right = make([]int, len(grad)), make([]int, 0, len(grad))
	}
	rows := b.rows[:len(grad)]
	for i := range rows {
		rows[i] = i
	}
	b.rows = rows
	root := b.get()
	b.fill(root, rows)
	b.grow(rows, 0, root)
	return tree{nodes: append([]node(nil), b.tr.nodes...)}
}

// grow adds the subtree over rows (whose histogram is h; nil at MaxDepth,
// where it is not looked at) and returns its node index. grow takes
// ownership of h: it is recycled or passed on to a child before
// returning.
func (b *histBuilder) grow(rows []int, depth int, h *nodeHist) int {
	var g float64
	hess := float64(len(rows))
	for _, i := range rows {
		g += b.grad[i]
	}
	leafWeight := -g / (hess + lambda)

	idx := len(b.tr.nodes)
	b.tr.nodes = append(b.tr.nodes, node{isLeaf: true, leaf: leafWeight})
	feat, thr, nl := -1, 0.0, 0
	if depth < b.cfg.MaxDepth && hess >= 2*minChildWeight {
		var gain float64
		if feat, thr, gain = b.bestSplit(h, g, hess); feat >= 0 && gain > gamma {
			nl = b.partition(rows, b.cols[feat].vals, thr)
		}
	}
	if nl == 0 || nl == len(rows) {
		b.put(h)
		for _, i := range rows {
			b.out[i] = leafWeight
		}
		return idx
	}
	left, right := rows[:nl], rows[nl:]
	var hl, hr *nodeHist
	if depth+1 < b.cfg.MaxDepth {
		// Sibling trick: fill the smaller child's histogram from its
		// rows, derive the larger child's by subtraction from the
		// parent's.
		small := left
		if len(right) < len(left) {
			small = right
		}
		hs := b.get()
		b.fill(hs, small)
		h.subtract(hs) // h is now the large child's histogram
		hl, hr = hs, h
		if len(right) < len(left) {
			hl, hr = h, hs
		}
	} else {
		b.put(h) // children at MaxDepth are leaves: no search, no histograms
	}
	l := b.grow(left, depth+1, hl)
	r := b.grow(right, depth+1, hr)
	b.tr.nodes[idx] = node{feature: feat, threshold: thr, left: l, right: r}
	return idx
}

// partition stably partitions rows in place by vals[i] < thr and returns
// the number of left-going rows. Those are compacted towards the front
// (the write index never passes the read index); right-going rows wait
// in the builder's scratch and are copied back behind them. Both halves
// keep their relative order, so every histogram is filled in row order.
func (b *histBuilder) partition(rows []int, vals []float64, thr float64) int {
	nl := 0
	b.right = b.right[:0]
	for _, i := range rows {
		if vals[i] < thr {
			rows[nl] = i
			nl++
		} else {
			b.right = append(b.right, i)
		}
	}
	copy(rows[nl:], b.right)
	return nl
}

// bestSplit scans every feature's histogram for the
// gain-maximising split; of equal gains the lowest feature, then the
// lowest bin, wins. A node's scan is microseconds of work, so it runs on
// the caller's goroutine: fits parallelise one level up, across the
// boosters of a regress.Fit.
func (b *histBuilder) bestSplit(h *nodeHist, gTot, hTot float64) (feature int, threshold, gain float64) {
	feature = -1
	parent := gTot * gTot / (hTot + lambda)
	for f := range b.cols {
		if thr, gn := b.scanFeature(f, h, gTot, hTot, parent); gn > gain {
			feature, threshold, gain = f, thr, gn
		}
	}
	return feature, threshold, gain
}

// scanFeature walks feature f's occupied bins in ascending value order
// and returns its best split (gain 0 if it has none). A candidate split
// sits between two consecutive occupied bins; its threshold is the
// midpoint of the bins' value ranges, matching the
// between-adjacent-values thresholds of the exact scan (exactly so when
// the binning is lossless).
func (b *histBuilder) scanFeature(f int, h *nodeHist, gTot, hTot, parent float64) (thr, gain float64) {
	bins := h.bins[2*b.off[f] : 2*b.off[f+1]]
	lo, hi := b.cols[f].lo, b.cols[f].hi
	var gl, hl float64
	prev := -1           // last occupied bin below the candidate edge
	below, above := 0, 0 // the bins either side of the best edge
	for w, word := range h.occ[f*occWords : (f+1)*occWords] {
		for ; word != 0; word &= word - 1 {
			k := w<<6 + bits.TrailingZeros64(word)
			if k >= len(lo) {
				break // the overflow slot: NaN rows, never a candidate
			}
			cnt := bins[2*k+1]
			if cnt == 0 {
				continue // the parent's bin, not this subtracted child's
			}
			if prev >= 0 && hl >= minChildWeight && hTot-hl >= minChildWeight {
				gr := gTot - gl
				hr := hTot - hl
				gn := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent)
				if gn > gain {
					gain, below, above = gn, prev, k
				}
			}
			gl += bins[2*k]
			hl += cnt
			prev = k
		}
	}
	return (hi[below] + lo[above]) / 2, gain
}
