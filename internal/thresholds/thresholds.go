// Package thresholds implements the alarm-thresholding techniques the
// paper uses on top of the anomaly scores: the self-tuning threshold of
// Giannoulidis et al. (SIGKDD Explorations 2022) — mean plus factor times
// standard deviation of scores on held-out healthy data, computed per
// vehicle and per channel — and the constant threshold used for the
// Grand detector's bounded deviation score.
package thresholds

import (
	"errors"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/mat"
)

// Thresholder decides, per score channel, whether a score violates the
// alarm threshold. Snapshot serialises the fitted state only — never the
// configuration (factor, constant), which the owner reconstructs before
// calling Restore.
type Thresholder interface {
	// Fit calibrates the thresholds from scores on supposedly healthy
	// data: calib[i] is the i-th sample's per-channel score vector.
	Fit(calib [][]float64) error
	// Violations returns the indices of channels whose score exceeds
	// their threshold.
	Violations(scores []float64) []int
	// Values returns the current per-channel thresholds (nil before a
	// successful Fit for self-tuning thresholds).
	Values() []float64
	checkpoint.Snapshotter
}

// ErrNoCalibration is returned when a self-tuning threshold is fitted
// with no calibration scores.
var ErrNoCalibration = errors.New("thresholds: no calibration scores")

// FloorStd guards a calibration standard deviation against degenerate
// smallness. With a few dozen calibration samples, a score channel that
// happens to be almost constant yields a near-zero std, which would turn
// any ordinary fluctuation into a hundreds-of-sigma violation. The floor
// is relative to the channel's mean score, so it is scale-free across
// transforms (correlations in [-1,1] vs raw rpm in the thousands).
func FloorStd(std, mean float64) float64 {
	floor := 0.5 * mean
	if floor < 0 {
		floor = -floor
	}
	if std < floor {
		return floor
	}
	if std < 1e-12 {
		return 1e-12
	}
	return std
}

// SelfTuning is the paper's default: threshold_c = mean_c + factor·std_c
// over the calibration scores of channel c. The same factor is shared by
// all vehicles; the resulting thresholds differ per vehicle because the
// calibration data does.
type SelfTuning struct {
	Factor float64
	values []float64
}

// NewSelfTuning returns a self-tuning thresholder with the given factor.
func NewSelfTuning(factor float64) *SelfTuning {
	return &SelfTuning{Factor: factor}
}

// Fit implements Thresholder.
func (s *SelfTuning) Fit(calib [][]float64) error {
	if len(calib) == 0 {
		return ErrNoCalibration
	}
	channels := len(calib[0])
	s.values = make([]float64, channels)
	col := make([]float64, len(calib))
	for c := 0; c < channels; c++ {
		for i, row := range calib {
			if len(row) != channels {
				return errors.New("thresholds: ragged calibration scores")
			}
			col[i] = row[c]
		}
		m := mat.Mean(col)
		s.values[c] = m + s.Factor*FloorStd(mat.Std(col), m)
	}
	return nil
}

// Violations implements Thresholder. It reports nothing before Fit.
func (s *SelfTuning) Violations(scores []float64) []int {
	if s.values == nil {
		return nil
	}
	var out []int
	for c, v := range scores {
		if c < len(s.values) && v > s.values[c] {
			out = append(out, c)
		}
	}
	return out
}

// Values implements Thresholder.
func (s *SelfTuning) Values() []float64 { return s.values }

// Constant applies the same fixed threshold to every channel; Fit only
// records the channel count. It suits detectors whose score is already
// normalised, like Grand's deviation score in [0, 1].
type Constant struct {
	Value    float64
	channels int
}

// NewConstant returns a constant thresholder.
func NewConstant(value float64) *Constant { return &Constant{Value: value} }

// Fit implements Thresholder.
func (c *Constant) Fit(calib [][]float64) error {
	if len(calib) > 0 {
		c.channels = len(calib[0])
	}
	return nil
}

// Violations implements Thresholder.
func (c *Constant) Violations(scores []float64) []int {
	var out []int
	for i, v := range scores {
		if v > c.Value {
			out = append(out, i)
		}
	}
	return out
}

// Values implements Thresholder.
func (c *Constant) Values() []float64 {
	n := c.channels
	if n == 0 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.Value
	}
	return out
}
