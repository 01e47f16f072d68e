// Package regress implements the paper's regression-based detector
// (Section 3.6): one gradient-boosted regressor per feature, each
// trained on the reference profile to predict its target feature from
// the remaining ones. At inference the absolute prediction error of each
// regressor is that feature's anomaly score, so alarms carry the same
// per-feature explanations as closest-pair detection.
package regress

import (
	"math"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/gbt"
)

// Detector is the per-feature regression detector ("xgboost" in the
// paper's result tables).
type Detector struct {
	cfg    gbt.Config
	names  []string
	models []*gbt.Regressor
	dim    int

	dropBuf []float64 // ScoreInto scratch: x without the target column
}

// New returns a regression detector. featureNames labels the channels
// (pass the transformer's FeatureNames; nil falls back to numbered
// labels). cfg parametrises every per-feature booster; the zero Config
// takes the gbt defaults.
func New(featureNames []string, cfg gbt.Config) *Detector {
	return &Detector{cfg: cfg, names: featureNames}
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "xgboost" }

// Fit implements detector.Detector: it trains dim regressors, the c-th
// one predicting feature c from all others.
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
	d.dim = dim
	d.models = make([]*gbt.Regressor, dim)
	if d.cfg.LegacyFitKernels {
		if err := d.fitLegacy(ref); err != nil {
			return err
		}
	} else {
		// ref is binned once, by column; the dim boosters share that
		// design read-only, each training on all columns but its own, so
		// channels fan out across the fitpool. Results land in
		// per-channel slots, making the fit worker-count independent.
		m := gbt.NewDesign(ref)
		fitpool.Run(dim, fitpool.Workers(), func(c int) {
			d.models[c] = m.TrainColumn(c, d.channelConfig(c))
		})
	}
	if d.names == nil || len(d.names) != dim {
		d.names = detector.NumberedChannels(dim)
	}
	return nil
}

// channelConfig is the booster configuration of channel c.
func (d *Detector) channelConfig(c int) gbt.Config {
	cfg := d.cfg
	cfg.Seed = d.cfg.Seed + int64(c) + 1
	return cfg
}

// fitLegacy is the LegacyFitKernels fit: channel by channel, each
// booster trained through gbt.Train on its own row-major copy of ref
// without the target column.
func (d *Detector) fitLegacy(ref [][]float64) error {
	X := make([][]float64, len(ref))
	y := make([]float64, len(ref))
	for c := range d.models {
		for i, row := range ref {
			X[i] = dropColumn(row, c)
			y[i] = row[c]
		}
		var err error
		if d.models[c], err = gbt.Train(X, y, d.channelConfig(c)); err != nil {
			return err
		}
	}
	return nil
}

// Score implements detector.Detector: per channel, the absolute error of
// predicting that feature from the others.
func (d *Detector) Score(x []float64) ([]float64, error) {
	out := make([]float64, d.Channels())
	if err := d.ScoreInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreInto implements detector.IntoScorer: Score with both the result
// and the per-channel dropped-column vectors in detector-owned scratch.
// gbt prediction walks fitted trees without allocating, so a warm
// ScoreInto is allocation-free — at fleet rates the two slices Score
// built per record (dim+1 allocations each call) were the regression
// path's dominant garbage.
func (d *Detector) ScoreInto(x, dst []float64) error {
	if d.models == nil {
		return detector.ErrNotFitted
	}
	if len(x) != d.dim || len(dst) != d.dim {
		return detector.ErrDimension
	}
	if cap(d.dropBuf) < d.dim-1 {
		d.dropBuf = make([]float64, d.dim-1)
	}
	drop := d.dropBuf[:d.dim-1]
	// Dropping column c and then column c+1 differ only at index c
	// (x[c+1] becomes x[c]), so after the initial fill each channel
	// updates one element instead of recopying the whole vector —
	// O(dim) writes across the loop rather than O(dim²).
	copy(drop, x[1:])
	for c := 0; c < d.dim; c++ {
		if c > 0 {
			drop[c-1] = x[c-1]
		}
		pred := d.models[c].Predict(drop)
		dst[c] = math.Abs(pred - x[c])
	}
	return nil
}

// ScoreLegacy is the pre-optimisation scorer, kept as the oracle
// TestScoreIntoMatchesScore compares against: per channel it
// allocates a fresh dropped-column vector, plus the result slice —
// dim+1 allocations per record. Bit-identical to Score and ScoreInto;
// only the buffer handling differs.
func (d *Detector) ScoreLegacy(x []float64) ([]float64, error) {
	if d.models == nil {
		return nil, detector.ErrNotFitted
	}
	if len(x) != d.dim {
		return nil, detector.ErrDimension
	}
	out := make([]float64, d.dim)
	for c := 0; c < d.dim; c++ {
		pred := d.models[c].Predict(dropColumn(x, c))
		out[c] = math.Abs(pred - x[c])
	}
	return out, nil
}

// Channels implements detector.Detector.
func (d *Detector) Channels() int { return d.dim }

// ChannelNames implements detector.Detector.
func (d *Detector) ChannelNames() []string { return d.names }

// dropColumn returns row without its c-th entry (fresh slice).
func dropColumn(row []float64, c int) []float64 {
	out := make([]float64, 0, len(row)-1)
	out = append(out, row[:c]...)
	return append(out, row[c+1:]...)
}
