package neighbors

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// KNNDistance returns the average Euclidean distance from q to its k
// nearest neighbours in the index — the "Knn" non-conformity measure of
// the Grand detector.
func KNNDistance(idx Index, q []float64, k int) float64 {
	_, dist := idx.KNN(q, k)
	if len(dist) == 0 {
		return math.NaN()
	}
	return mat.Mean(dist)
}

// LOF holds a fitted Local Outlier Factor model over a reference point
// set: the neighbour structure, per-point k-distances and local
// reachability densities.
type LOF struct {
	index Index
	k     int
	kDist []float64 // k-distance of each reference point
	lrd   []float64 // local reachability density of each reference point
	nbrs  [][]int   // k nearest neighbours of each reference point
	nbrsD [][]float64
	// rawNbrs / rawNbrsD are the (k+1)-neighbour lists before self
	// removal, exactly as Score's query would see them.
	rawNbrs  [][]int
	rawNbrsD [][]float64
}

// FitLOF fits LOF with neighbourhood size k over the points behind idx.
// k is clamped to len-1 (a point is never its own neighbour).
func FitLOF(idx Index, k int) *LOF {
	n := idx.Len()
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	l := &LOF{
		index:    idx,
		k:        k,
		kDist:    make([]float64, n),
		lrd:      make([]float64, n),
		nbrs:     make([][]int, n),
		nbrsD:    make([][]float64, n),
		rawNbrs:  make([][]int, n),
		rawNbrsD: make([][]float64, n),
	}
	// Neighbours of each reference point, excluding itself. The raw
	// (self-inclusive) lists are retained so ScoreRef can rescore a
	// reference point as a query without repeating the k-NN search.
	for i := 0; i < n; i++ {
		ids, dists := idx.KNN(idx.Point(i), k+1)
		l.rawNbrs[i] = ids
		l.rawNbrsD[i] = dists
		ids, dists = dropSelf(ids, dists, i)
		if len(ids) > k {
			ids, dists = ids[:k], dists[:k]
		}
		l.nbrs[i] = ids
		l.nbrsD[i] = dists
		if len(dists) > 0 {
			l.kDist[i] = dists[len(dists)-1]
		}
	}
	// Local reachability densities.
	for i := 0; i < n; i++ {
		l.lrd[i] = l.lrdOf(l.nbrs[i], l.nbrsD[i])
	}
	return l
}

// dropSelf removes point i from its own neighbour list (matching by
// index, falling back to dropping one zero-distance entry).
func dropSelf(ids []int, dists []float64, self int) ([]int, []float64) {
	for p, id := range ids {
		if id == self {
			return append(append([]int{}, ids[:p]...), ids[p+1:]...),
				append(append([]float64{}, dists[:p]...), dists[p+1:]...)
		}
	}
	return ids, dists
}

// lrdOf computes a local reachability density given a neighbour list.
// Duplicated points can give a zero reachability sum; the conventional
// treatment assigns an infinite density.
func (l *LOF) lrdOf(ids []int, dists []float64) float64 {
	if len(ids) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for p, id := range ids {
		reach := math.Max(l.kDist[id], dists[p])
		sum += reach
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(ids)) / sum
}

// Scores returns the LOF of every reference point (in-sample scoring, as
// used for the top-1% outlier analysis of Section 2). Values near 1 mean
// inlier; larger values mean increasingly isolated points.
func (l *LOF) Scores() []float64 {
	out := make([]float64, len(l.lrd))
	for i := range out {
		out[i] = l.ratio(l.lrd[i], l.nbrs[i])
	}
	return out
}

// Score returns the LOF of a query point with respect to the reference
// set — the "Lof" non-conformity measure of the Grand detector.
func (l *LOF) Score(q []float64) float64 {
	ids, dists := l.index.KNN(q, l.k+1)
	// A query identical to a reference point keeps it as a neighbour;
	// trim to k entries.
	if len(ids) > l.k {
		ids, dists = ids[:l.k], dists[:l.k]
	}
	lrdQ := l.lrdOf(ids, dists)
	return l.ratio(lrdQ, ids)
}

// ScoreRef returns the LOF of reference point i scored as a query —
// identical to Score(Point(i)) to the last bit, but reusing the
// neighbour lists computed at fit time instead of re-running the k-NN
// search (this turns an O(n²) rescoring loop into O(n·k)).
func (l *LOF) ScoreRef(i int) float64 {
	ids, dists := l.rawNbrs[i], l.rawNbrsD[i]
	if len(ids) > l.k {
		ids, dists = ids[:l.k], dists[:l.k]
	}
	lrdQ := l.lrdOf(ids, dists)
	return l.ratio(lrdQ, ids)
}

// ratio computes mean(lrd(neighbours)) / lrd(p) with the conventional
// treatment of infinite densities (duplicate-heavy data): if both are
// infinite the point is as dense as its neighbours (LOF 1); if only the
// point's density is infinite it is maximally inlying.
func (l *LOF) ratio(lrdP float64, ids []int) float64 {
	if len(ids) == 0 {
		return 1
	}
	var sum float64
	infCount := 0
	for _, id := range ids {
		if math.IsInf(l.lrd[id], 1) {
			infCount++
			continue
		}
		sum += l.lrd[id]
	}
	if math.IsInf(lrdP, 1) {
		if infCount > 0 {
			return 1
		}
		return 0 // denser than any neighbour: strong inlier
	}
	if infCount == len(ids) {
		return math.Inf(1)
	}
	mean := sum / float64(len(ids)-infCount)
	return mean / lrdP
}

// K returns the fitted neighbourhood size.
func (l *LOF) K() int { return l.k }
