package eval

import (
	"fmt"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/isoforest"
	"github.com/navarchos/pdm/internal/detector/mlp"
	"github.com/navarchos/pdm/internal/detector/regress"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/gbt"
	"github.com/navarchos/pdm/internal/iforest"
)

// Technique enumerates the four step-3 techniques the paper compares.
type Technique int

const (
	// ClosestPair is the similarity-based per-feature nearest-value
	// detector (Section 3.3).
	ClosestPair Technique = iota
	// Grand is the conformal/martingale detector (Section 3.4).
	Grand
	// TranAD is the transformer reconstruction detector (Section 3.5).
	TranAD
	// XGBoost is the per-feature gradient-boosted regression detector
	// (Section 3.6).
	XGBoost
	// IsolationForest is the related-work baseline of Khan et al. 2019
	// (not part of the paper's grid; an extension of this repository).
	IsolationForest
	// MLP is the engine-load-regression baseline of Massaro et al. 2020
	// (related work; extension).
	MLP
)

// String implements fmt.Stringer, matching the paper's labels.
func (t Technique) String() string {
	switch t {
	case ClosestPair:
		return "closest-pair"
	case Grand:
		return "grand"
	case TranAD:
		return "tranad"
	case XGBoost:
		return "xgboost"
	case IsolationForest:
		return "isolation-forest"
	case MLP:
		return "mlp"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// PaperTechniques returns the four techniques in presentation order.
func PaperTechniques() []Technique { return []Technique{ClosestPair, Grand, TranAD, XGBoost} }

// ExtensionTechniques returns the related-work baselines implemented
// beyond the paper's grid.
func ExtensionTechniques() []Technique { return []Technique{IsolationForest, MLP} }

// UsesConstantThreshold reports whether the technique's score is
// normalised to [0, 1) and therefore thresholded with constants rather
// than the self-tuning factor (Grand per the paper's Section 4;
// isolation forest's score is likewise bounded).
func (t Technique) UsesConstantThreshold() bool { return t == Grand || t == IsolationForest }

// shippedTranAD and shippedXGBoost are NewDetector's hyper-parameters,
// named so the kernel-oracle test flips one flag on exactly what ships.
func shippedTranAD(seed int64) tranad.Config {
	return tranad.Config{Window: 8, DModel: 12, Heads: 2, Epochs: 5, MaxWindows: 256, Seed: seed}
}

func shippedXGBoost(seed int64) gbt.Config {
	return gbt.Config{NumTrees: 25, MaxDepth: 3, Seed: seed}
}

// NewDetector builds a fresh detector instance for the technique.
// featureNames labels per-feature channels; seed makes the trainable
// techniques deterministic. The default hyper-parameters are sized for
// the benchmark-scale fleet so that the full grid runs in minutes.
func NewDetector(t Technique, featureNames []string, seed int64) (detector.Detector, error) {
	switch t {
	case ClosestPair:
		return closestpair.New(featureNames), nil
	case Grand:
		return grand.New(grand.Config{Measure: grand.KNN}), nil
	case TranAD:
		return tranad.New(shippedTranAD(seed)), nil
	case XGBoost:
		return regress.New(featureNames, shippedXGBoost(seed)), nil
	case IsolationForest:
		return isoforest.New(iforest.Config{Trees: 100, Seed: seed}), nil
	case MLP:
		// Predict the last feature from the rest (for the correlation
		// transform that is corr(mapIntake, MAFairFlowRate); for raw,
		// the MAF signal — close to Massaro et al.'s engine-load
		// target).
		name := "target"
		if n := len(featureNames); n > 0 {
			name = featureNames[n-1]
		}
		return mlp.New(mlp.Config{Epochs: 30, Seed: seed}, name), nil
	default:
		return nil, fmt.Errorf("eval: unknown technique %d", int(t))
	}
}
