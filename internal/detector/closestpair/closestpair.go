// Package closestpair implements the paper's winning technique
// (Section 3.3): per-feature nearest-neighbour distance against the
// reference profile. Each feature of a transformed sample is scored by
// its distance to the closest value of that feature anywhere in Ref,
// yielding one score channel per feature and therefore directly
// explainable alarms.
//
// The per-feature formulation reduces each query to a binary search in a
// sorted slice, which is why this detector is an order of magnitude
// faster than its competitors (Table 1 of the paper).
package closestpair

import (
	"sort"

	"github.com/navarchos/pdm/internal/detector"
)

// Detector scores each feature by distance to its nearest reference
// value. The zero value is usable after Fit.
type Detector struct {
	names  []string
	sorted [][]float64 // per feature: ascending reference values
	loo    [][]float64 // per reference sample: leave-one-out scores
}

// New returns a closest-pair detector. featureNames labels the score
// channels (pass the transformer's FeatureNames); it may be nil, in
// which case numbered labels are generated at Fit time.
func New(featureNames []string) *Detector {
	return &Detector{names: featureNames}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "closest-pair" }

// Replicate implements detector.Replicator.
func (d *Detector) Replicate() detector.Detector { return New(d.names) }

// Fit implements detector.Detector: it indexes each feature column of
// the reference profile for O(log n) nearest-value queries.
func (d *Detector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return detector.ErrEmptyReference
	}
	dim := len(ref[0])
	for _, row := range ref {
		if len(row) != dim || dim == 0 {
			return detector.ErrDimension
		}
	}
	d.sorted = make([][]float64, dim)
	for c := 0; c < dim; c++ {
		col := make([]float64, len(ref))
		for i, row := range ref {
			col[i] = row[c]
		}
		sort.Float64s(col)
		d.sorted[c] = col
	}
	if d.names == nil || len(d.names) != dim {
		d.names = detector.NumberedChannels(dim)
	}
	// Leave-one-out self-calibration scores: for each reference sample
	// and channel, the distance to the nearest OTHER reference value.
	d.loo = make([][]float64, len(ref))
	for i, row := range ref {
		s := make([]float64, dim)
		for c, v := range row {
			s[c] = nearestGapLOO(d.sorted[c], v)
		}
		d.loo[i] = s
	}
	return nil
}

// LOOScores implements detector.SelfCalibrator.
func (d *Detector) LOOScores() [][]float64 { return d.loo }

// Score implements detector.Detector.
func (d *Detector) Score(x []float64) ([]float64, error) {
	out := make([]float64, len(x))
	if err := d.ScoreInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreInto implements detector.IntoScorer: the allocation-free scoring
// fast path. Each channel is a binary search in a sorted slice, so a
// steady-state score costs O(dim·log n) with zero heap traffic.
func (d *Detector) ScoreInto(x, dst []float64) error {
	if d.sorted == nil {
		return detector.ErrNotFitted
	}
	if len(x) != len(d.sorted) || len(dst) != len(d.sorted) {
		return detector.ErrDimension
	}
	for c, v := range x {
		dst[c] = nearestGap(d.sorted[c], v)
	}
	return nil
}

// Channels implements detector.Detector.
func (d *Detector) Channels() int { return len(d.sorted) }

// ChannelNames implements detector.Detector.
func (d *Detector) ChannelNames() []string { return d.names }

// nearestGap returns the distance from v to the closest element of the
// ascending slice col (which is non-empty).
func nearestGap(col []float64, v float64) float64 {
	i := sort.SearchFloat64s(col, v)
	best := -1.0
	if i < len(col) {
		best = col[i] - v
	}
	if i > 0 {
		if d := v - col[i-1]; best < 0 || d < best {
			best = d
		}
	}
	return best
}

// nearestGapLOO returns the distance from reference value v to its
// nearest OTHER element in col (v itself is a member of col). A
// duplicated value has distance 0.
func nearestGapLOO(col []float64, v float64) float64 {
	i := sort.SearchFloat64s(col, v) // first index with col[i] >= v
	// Count occurrences of v starting at i.
	j := i
	for j < len(col) && col[j] == v {
		j++
	}
	if j-i > 1 {
		return 0 // duplicate: another sample has the same value
	}
	best := -1.0
	if j < len(col) {
		best = col[j] - v
	}
	if i > 0 {
		if d := v - col[i-1]; best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return 0 // single-element column: no other value exists
	}
	return best
}
