// Package transform implements step 1 of the paper's framework: mapping
// raw PID records into a feature space where failure-related behavioural
// change is visible. It provides the four transformations the paper
// evaluates — correlation, mean aggregation, delta and raw — plus the two
// additional alternatives its Section 3.1 mentions (histograms and a
// frequency-domain transformation), all behind one streaming interface.
package transform

import (
	"fmt"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Transformer consumes raw records one at a time and emits transformed
// feature vectors, mirroring Algorithm 1's transformer object:
//
//	tr.Collect(rec)
//	if tr.Ready() {
//	    tr.EmitInto(x)
//	    ...
//	}
//
// The caller owns the emitted vector: the streaming pipeline scores a
// reused scratch buffer once the reference profile is full, and
// allocates only the vectors it retains in Ref.
//
// Snapshot serialises only the buffered state — ring contents, running
// sums, gap-guard clock — never the configuration (kind, window, bins),
// which the owner reconstructs with New before calling Restore, so a
// pipeline can be frozen mid-window and resumed bit-identically.
//
// Implementations are single-vehicle and not safe for concurrent use;
// the pipeline owns one Transformer per vehicle.
type Transformer interface {
	// Name returns the canonical transformation name used in result
	// tables ("correlation", "raw", ...).
	Name() string
	// Dim returns the dimensionality of emitted feature vectors.
	Dim() int
	// FeatureNames returns one descriptive name per output feature, for
	// alarm explanations (e.g. "corr(speed,coolantTemp)").
	FeatureNames() []string
	// Collect pushes one raw record into the transformer's buffer.
	Collect(r timeseries.Record)
	// Ready reports whether a transformed sample can be emitted.
	Ready() bool
	// EmitInto writes the next transformed vector into dst and consumes
	// the buffered state behind it. It must only be called when Ready()
	// and with len(dst) == Dim().
	EmitInto(dst []float64)
	// Reset clears all buffered state (used when the reference profile
	// is rebuilt or the stream restarts).
	Reset()
	checkpoint.Snapshotter
}

// Kind selects a transformation.
type Kind int

// The transformation kinds, in the paper's presentation order.
const (
	Correlation Kind = iota
	Raw
	Delta
	MeanAgg
	Histogram
	Spectral
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Correlation:
		return "correlation"
	case Raw:
		return "raw"
	case Delta:
		return "delta"
	case MeanAgg:
		return "mean"
	case Histogram:
		return "histogram"
	case Spectral:
		return "spectral"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PaperKinds returns the four transformations evaluated in the paper's
// Figures 4–7, in presentation order.
func PaperKinds() []Kind { return []Kind{Correlation, Raw, MeanAgg, Delta} }

// AllKinds returns every implemented transformation including the
// future-work extensions.
func AllKinds() []Kind {
	return []Kind{Correlation, Raw, Delta, MeanAgg, Histogram, Spectral}
}

// New constructs a transformer of the given kind. window is the sliding
// window length in records for the windowed kinds (correlation, mean,
// histogram, spectral); it is ignored by raw and delta. A non-positive
// window defaults to 60 (one driving hour at the fleet's 1/min rate).
func New(kind Kind, window int) (Transformer, error) {
	if window <= 0 {
		window = 60
	}
	switch kind {
	case Correlation:
		return newCorrelation(window), nil
	case Raw:
		return newRaw(), nil
	case Delta:
		return newDelta(), nil
	case MeanAgg:
		return newMeanAgg(window), nil
	case Histogram:
		return newHistogram(window, 5), nil
	case Spectral:
		return newSpectral(window, 4), nil
	default:
		return nil, fmt.Errorf("transform: unknown kind %d", int(kind))
	}
}
