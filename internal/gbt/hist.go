package gbt

import (
	"sort"

	"github.com/navarchos/pdm/internal/fitpool"
)

// maxBins is the histogram resolution of the binned split search. With
// at most maxBins distinct values per feature the binning is lossless:
// every distinct value gets its own bin and the candidate thresholds are
// exactly the midpoints the exact greedy scan would propose.
const maxBins = 256

// histBins is the per-Train binning of the design matrix: each feature's
// values are mapped once to uint8 bin indices, and every tree node then
// searches splits over per-bin gradient histograms instead of re-walking
// pre-sorted row orderings through a membership hash. lo[f][k] / hi[f][k]
// record the smallest and largest raw value landing in bin k, so
// candidate thresholds stay midpoints in data space.
type histBins struct {
	binned [][]uint8   // [feature][row] -> bin index
	lo, hi [][]float64 // [feature][bin] -> value range of the bin
	nbins  []int       // [feature] -> number of occupied bins
}

// buildBins bins every feature of X. Features with more than maxBins
// distinct values are quantised by spreading the distinct values evenly
// over maxBins bins (equal-frequency over distinct values), which keeps
// outliers from collapsing the bulk of the distribution into one bin.
func buildBins(X [][]float64, dim int) *histBins {
	n := len(X)
	b := &histBins{
		binned: make([][]uint8, dim),
		lo:     make([][]float64, dim),
		hi:     make([][]float64, dim),
		nbins:  make([]int, dim),
	}
	vals := make([]float64, n)
	for f := 0; f < dim; f++ {
		for i, row := range X {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		distinct := make([]float64, 0, n)
		for i, v := range vals {
			if i == 0 || v != distinct[len(distinct)-1] {
				distinct = append(distinct, v)
			}
		}
		nb := len(distinct)
		if nb > maxBins {
			nb = maxBins
		}
		lo := make([]float64, nb)
		hi := make([]float64, nb)
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
		// cut[k] = upper edge of bin k; assignment is a binary search for
		// the first bin whose hi covers the value.
		binned := make([]uint8, n)
		for i, row := range X {
			v := row[f]
			k := sort.SearchFloat64s(hi, v)
			// SearchFloat64s returns the first index with hi[k] >= v,
			// which is exactly the bin whose range contains v.
			binned[i] = uint8(k)
		}
		b.binned[f] = binned
		b.lo[f] = lo
		b.hi[f] = hi
		b.nbins[f] = nb
	}
	return b
}

// nodeHist is one tree node's gradient histogram: per feature, per bin,
// the gradient sum and the sample count (the hessian of squared loss).
// Both arrays are flat with stride maxBins.
type nodeHist struct {
	gh  []float64
	cnt []float64
}

func newNodeHist(dim int) *nodeHist {
	return &nodeHist{gh: make([]float64, dim*maxBins), cnt: make([]float64, dim*maxBins)}
}

func (h *nodeHist) zero() {
	for i := range h.gh {
		h.gh[i] = 0
		h.cnt[i] = 0
	}
}

// subtract removes child from h in place — the sibling trick: the
// larger child's histogram is the parent's minus the smaller child's,
// computed in O(bins) instead of O(rows).
func (h *nodeHist) subtract(child *nodeHist) {
	for i := range h.gh {
		h.gh[i] -= child.gh[i]
		h.cnt[i] -= child.cnt[i]
	}
}

// histBuilder grows one regression tree with binned split search.
type histBuilder struct {
	X     [][]float64
	grad  []float64
	cfg   Config
	bins  *histBins
	inBag []bool
	feats []bool
	dim   int
	tr    tree

	free  []*nodeHist // recycled node histograms
	cands []histCand  // per-feature scratch of the parallel scan
	rows  []int       // the tree's in-bag rows, partitioned in place as it grows
	right []int       // partition scratch: a node's right-going rows
}

type histCand struct {
	gain, thr float64
	ok        bool
}

func (b *histBuilder) get() *nodeHist {
	if n := len(b.free); n > 0 {
		h := b.free[n-1]
		b.free = b.free[:n-1]
		h.zero()
		return h
	}
	return newNodeHist(b.dim)
}

func (b *histBuilder) put(h *nodeHist) { b.free = append(b.free, h) }

// fill accumulates the histogram of rows for every allowed feature.
func (b *histBuilder) fill(h *nodeHist, rows []int) {
	for f := 0; f < b.dim; f++ {
		if !b.feats[f] {
			continue
		}
		binned := b.bins.binned[f]
		gh := h.gh[f*maxBins : (f+1)*maxBins]
		cnt := h.cnt[f*maxBins : (f+1)*maxBins]
		for _, i := range rows {
			k := binned[i]
			gh[k] += b.grad[i]
			cnt[k]++
		}
	}
}

func (b *histBuilder) build() tree {
	rows := b.rows[:0]
	for i := range b.X {
		if b.inBag[i] {
			rows = append(rows, i)
		}
	}
	b.rows = rows
	if len(rows) == 0 {
		b.tr.nodes = append(b.tr.nodes, node{isLeaf: true})
		return b.tr
	}
	root := b.get()
	b.fill(root, rows)
	b.grow(rows, 0, root)
	return b.tr
}

// grow adds the subtree over rows (whose histogram is h) and returns its
// node index. grow takes ownership of h: it is recycled or passed on to
// a child before returning.
func (b *histBuilder) grow(rows []int, depth int, h *nodeHist) int {
	var g float64
	hess := float64(len(rows))
	for _, i := range rows {
		g += b.grad[i]
	}
	leafWeight := -g / (hess + b.cfg.Lambda)

	idx := len(b.tr.nodes)
	b.tr.nodes = append(b.tr.nodes, node{isLeaf: true, leaf: leafWeight})
	if depth >= b.cfg.MaxDepth || hess < 2*b.cfg.MinChildWeight {
		b.put(h)
		return idx
	}
	feat, thr, gain := b.bestSplit(h, g, hess)
	if feat < 0 || gain <= b.cfg.Gamma {
		b.put(h)
		return idx
	}
	// Stable partition of rows in place: left-going rows are compacted
	// towards the front (the write index never passes the read index),
	// right-going rows wait in the builder's scratch and are copied back
	// behind them. Both halves keep their relative order, so every
	// histogram is filled in the order the append-built slices gave.
	nl := 0
	b.right = b.right[:0]
	for _, i := range rows {
		if b.X[i][feat] < thr {
			rows[nl] = i
			nl++
		} else {
			b.right = append(b.right, i)
		}
	}
	copy(rows[nl:], b.right)
	left, right := rows[:nl], rows[nl:]
	if len(left) == 0 || len(right) == 0 {
		b.put(h)
		return idx
	}
	// Sibling trick: fill the smaller child's histogram from its rows,
	// derive the larger child's by subtraction from the parent's.
	small := left
	if len(right) < len(left) {
		small = right
	}
	hs := b.get()
	b.fill(hs, small)
	h.subtract(hs) // h is now the large child's histogram
	hl, hr := hs, h
	if len(right) < len(left) {
		hl, hr = h, hs
	}
	l := b.grow(left, depth+1, hl)
	r := b.grow(right, depth+1, hr)
	b.tr.nodes[idx] = node{feature: feat, threshold: thr, left: l, right: r}
	return idx
}

// bestSplit scans every allowed feature's histogram for the
// gain-maximising split. Features are scanned in parallel across fitpool
// workers; each writes an independent per-feature candidate slot and the
// reduction walks features in ascending order, so the chosen split never
// depends on the worker count.
func (b *histBuilder) bestSplit(h *nodeHist, gTot, hTot float64) (feature int, threshold, gain float64) {
	feature = -1
	parent := gTot * gTot / (hTot + b.cfg.Lambda)
	fitpool.Run(b.dim, fitpool.Workers(), func(_, f int) {
		b.cands[f] = b.scanFeature(f, h, gTot, hTot, parent)
	})
	for f := 0; f < b.dim; f++ {
		if b.cands[f].ok && b.cands[f].gain > gain {
			gain = b.cands[f].gain
			threshold = b.cands[f].thr
			feature = f
		}
	}
	return feature, threshold, gain
}

// scanFeature walks feature f's bins in ascending value order. A
// candidate split sits between two consecutive occupied bins; its
// threshold is the midpoint of the bins' value ranges, matching the
// between-adjacent-values thresholds of the exact scan (exactly so when
// the binning is lossless).
func (b *histBuilder) scanFeature(f int, h *nodeHist, gTot, hTot, parent float64) histCand {
	var c histCand
	if !b.feats[f] {
		return c
	}
	gh := h.gh[f*maxBins : (f+1)*maxBins]
	cnt := h.cnt[f*maxBins : (f+1)*maxBins]
	lo, hi := b.bins.lo[f], b.bins.hi[f]
	var gl, hl float64
	prev := -1 // last occupied bin below the candidate edge
	for k := 0; k < b.bins.nbins[f]; k++ {
		if cnt[k] == 0 {
			continue
		}
		if prev >= 0 && hl >= b.cfg.MinChildWeight && hTot-hl >= b.cfg.MinChildWeight {
			gr := gTot - gl
			hr := hTot - hl
			gn := 0.5 * (gl*gl/(hl+b.cfg.Lambda) + gr*gr/(hr+b.cfg.Lambda) - parent)
			if gn > c.gain {
				c.gain = gn
				c.thr = (hi[prev] + lo[k]) / 2
				c.ok = true
			}
		}
		gl += gh[k]
		hl += cnt[k]
		prev = k
	}
	return c
}
