// Package grand implements the Grand inductive anomaly detector
// (Rögnvaldsson et al., DMKD 2018; extended by Giannoulidis & Gounaris
// 2023) in the per-vehicle variant the paper uses: the strangeness of a
// new sample is measured against the vehicle's own reference data with a
// non-conformity measure (Median, KNN or LOF), converted into a conformal
// p-value, and accumulated into a deviation score in [0, 1) with a power
// martingale over a sliding window of recent p-values (the
// exchangeability test of Dai & Bouguelia).
package grand

import (
	"fmt"
	"math"
	"sort"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/neighbors"
)

// kdCutoff is the reference size above which KNN/LOF queries run on a
// k-d tree instead of the brute-force scan. Below it the linear scan's
// cache behaviour wins; above it the tree's pruning makes both the
// refNC fit loop and steady-state scoring sublinear in practice.
const kdCutoff = 256

// The constants of every Grand detector: the neighbourhood size of the
// KNN and LOF measures, and the power-martingale exponent in (0, 1), a
// standard choice in the martingale-testing literature.
const (
	numNeighbours = 10
	epsilon       = 0.92
)

// Measure selects the non-conformity measure.
type Measure int

const (
	// Median scores a sample by its distance from the componentwise
	// median of Ref — its "most central pattern".
	Median Measure = iota
	// KNN scores by the average distance to the k nearest reference
	// samples.
	KNN
	// LOF scores by the Local Outlier Factor against Ref.
	LOF
)

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case Median:
		return "median"
	case KNN:
		return "knn"
	case LOF:
		return "lof"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Config parametrises the detector.
type Config struct {
	// Measure is the non-conformity measure. The zero value is Median;
	// eval.NewDetector ships KNN.
	Measure Measure
	// MartingaleWindow is the number of recent p-values the power
	// martingale accumulates over (default 30).
	MartingaleWindow int
	// LegacyKernels restores the pre-optimisation kernels: a brute-force
	// index regardless of reference size, index re-queries for every
	// reference point's own non-conformity, and the O(n) linear p-value
	// scan. Scores are identical either way (see the equivalence tests);
	// only the asymptotics differ. It exists as the oracle of those
	// tests.
	LegacyKernels bool
}

func (c *Config) defaults() {
	if c.MartingaleWindow <= 0 {
		c.MartingaleWindow = 30
	}
}

// Detector is the Grand inductive detector. It emits a single score
// channel: the deviation level in [0, 1), suited to a constant
// threshold.
type Detector struct {
	cfg Config

	ref    [][]float64
	median []float64
	index  neighbors.Index
	lof    *neighbors.LOF
	query  neighbors.Query
	// refNC holds the non-conformity of each reference sample in fit
	// order; sortedNC is its NaN-free ascending copy, so the conformal
	// p-value counts run in O(log n) by binary search. ncN is the full
	// reference count (NaN entries included), fixing the p-value
	// denominator at n+1 exactly as the linear scan had it.
	refNC    []float64
	sortedNC []float64
	ncN      int
	logBets  []float64 // sliding window of log martingale bets
	betPos   int
	betN     int
}

// New returns a Grand detector with the given configuration.
func New(cfg Config) *Detector {
	cfg.defaults()
	return &Detector{cfg: cfg}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "grand" }

// Replicate implements detector.Replicator.
func (d *Detector) Replicate() detector.Detector { return New(d.cfg) }

// Channels implements detector.Detector.
func (d *Detector) Channels() int { return 1 }

// ChannelNames implements detector.Detector.
func (d *Detector) ChannelNames() []string { return []string{"deviation"} }

// Fit implements detector.Detector. It stores the reference set, builds
// the structures behind the chosen non-conformity measure, precomputes
// the reference samples' own non-conformity scores (needed for the
// conformal p-value) and resets the martingale.
func (d *Detector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return detector.ErrEmptyReference
	}
	dim := len(ref[0])
	for _, row := range ref {
		if len(row) != dim {
			return detector.ErrDimension
		}
	}
	d.ref = ref
	d.logBets = make([]float64, d.cfg.MartingaleWindow)
	d.betPos, d.betN = 0, 0

	if err := d.buildMeasure(dim); err != nil {
		return err
	}

	// Reference non-conformity scores. For KNN/LOF the reference sample
	// itself is among the neighbours; excluding it would require n
	// leave-one-out fits, so like the reference implementation we keep
	// the inductive approximation. LOF rescoring reuses the neighbour
	// lists already computed by FitLOF instead of re-querying the index
	// for every reference point.
	d.refNC = make([]float64, len(ref))
	for i, row := range ref {
		if d.cfg.Measure == LOF && !d.cfg.LegacyKernels {
			d.refNC[i] = d.lof.ScoreRef(i)
		} else {
			d.refNC[i] = d.strangeness(row)
		}
	}
	d.ncN = len(d.refNC)
	d.sortedNC = d.sortedNC[:0]
	for _, v := range d.refNC {
		if !math.IsNaN(v) {
			d.sortedNC = append(d.sortedNC, v)
		}
	}
	sort.Float64s(d.sortedNC)
	return nil
}

// buildMeasure constructs the structures behind the configured
// non-conformity measure from d.ref. The build is deterministic in the
// reference set, so snapshot restore re-derives the measure instead of
// serialising k-d trees and LOF tables.
func (d *Detector) buildMeasure(dim int) error {
	switch d.cfg.Measure {
	case Median:
		d.median = make([]float64, dim)
		col := make([]float64, len(d.ref))
		for c := 0; c < dim; c++ {
			for i, row := range d.ref {
				col[i] = row[c]
			}
			d.median[c] = mat.Median(col)
		}
	case KNN, LOF:
		var idx neighbors.Index
		var err error
		if len(d.ref) >= kdCutoff && !d.cfg.LegacyKernels {
			idx, err = neighbors.NewKDTree(d.ref)
		} else {
			idx, err = neighbors.NewBrute(d.ref)
		}
		if err != nil {
			return err
		}
		d.index = idx
		if d.cfg.Measure == LOF {
			d.lof = neighbors.FitLOF(idx, numNeighbours)
		}
	default:
		return fmt.Errorf("grand: unknown measure %d", int(d.cfg.Measure))
	}
	return nil
}

// strangeness computes the configured non-conformity score for x.
func (d *Detector) strangeness(x []float64) float64 {
	switch d.cfg.Measure {
	case Median:
		dist, err := mat.Euclidean(x, d.median)
		if err != nil {
			return math.NaN()
		}
		return dist
	case KNN:
		if d.cfg.LegacyKernels {
			return neighbors.KNNDistance(d.index, x, numNeighbours)
		}
		return d.query.MeanDistance(d.index, x, numNeighbours)
	case LOF:
		return d.lof.Score(x)
	default:
		return math.NaN()
	}
}

// pValue is the deterministic conformal p-value of a strangeness score
// against the reference scores: ties contribute half their mass (the
// usual smoothed p-value with θ fixed at ½ for reproducibility).
// Implemented as two binary searches over the sorted reference scores —
// identical counts to the linear scan (including the NaN conventions:
// NaN reference entries count toward neither bucket, and a NaN query
// matches nothing) in O(log n).
func (d *Detector) pValue(s float64) float64 {
	arr := d.sortedNC
	// lower: first index with arr[i] >= s. A NaN query fails every
	// comparison, driving both bounds to len(arr).
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] >= s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	lower := lo
	// upper: first index with arr[i] > s.
	hi = len(arr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	greater := len(arr) - lo
	equal := lo - lower
	return (float64(greater) + 0.5*float64(equal) + 0.5) / float64(d.ncN+1)
}

// pValueLinear is the original O(n) scan, kept as the oracle for the
// binary-search equivalence test and as the LegacyKernels path.
func (d *Detector) pValueLinear(s float64) float64 {
	greater, equal := 0, 0
	for _, r := range d.refNC {
		switch {
		case r > s:
			greater++
		case r == s:
			equal++
		}
	}
	return (float64(greater) + 0.5*float64(equal) + 0.5) / float64(len(d.refNC)+1)
}

// Score implements detector.Detector: it pushes the sample's p-value
// into the power martingale and returns the current deviation level
// M/(1+M) ∈ [0, 1). Exchangeable (healthy) data keeps the martingale
// near 1 (deviation ≈ 0.5); a run of small p-values grows it toward 1.
func (d *Detector) Score(x []float64) ([]float64, error) {
	out := make([]float64, 1)
	if err := d.ScoreInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreInto implements detector.IntoScorer: the same martingale update
// as Score, writing the deviation into dst without allocating. With the
// Median or KNN measure the whole steady-state path — strangeness,
// binary-search p-value, martingale window — is allocation-free; LOF
// still allocates inside its reachability computation.
func (d *Detector) ScoreInto(x, dst []float64) error {
	if d.ref == nil {
		return detector.ErrNotFitted
	}
	if len(x) != len(d.ref[0]) || len(dst) != 1 {
		return detector.ErrDimension
	}
	s := d.strangeness(x)
	var p float64
	if d.cfg.LegacyKernels {
		p = d.pValueLinear(s)
	} else {
		p = d.pValue(s)
	}
	// Power-martingale bet ε·p^(ε−1); log kept bounded for stability.
	// eps is float64 before ε−1 is taken: the untyped constant would
	// subtract exactly and round -0.08 instead.
	eps := float64(epsilon)
	logBet := math.Log(eps) + (eps-1)*math.Log(p)
	d.logBets[d.betPos] = logBet
	d.betPos = (d.betPos + 1) % len(d.logBets)
	if d.betN < len(d.logBets) {
		d.betN++
	}
	var sum float64
	for i := 0; i < d.betN; i++ {
		sum += d.logBets[i]
	}
	sum = mat.Clamp(sum, -50, 50)
	m := math.Exp(sum)
	dst[0] = m / (1 + m)
	return nil
}
