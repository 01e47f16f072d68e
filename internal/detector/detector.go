// Package detector defines the scoring-model interface of step 3 of the
// paper's framework and its alarm vocabulary. Concrete detectors live in
// subpackages (closestpair, grand, tranad, regress). A detector may also
// implement optional extensions: IntoScorer and RunScorer score without
// allocating and a run at a time, SelfCalibrator calibrates on its own
// reference leave-one-out, and Replicator builds the fresh replica an
// offline run fits each later Ref segment on.
package detector

import (
	"errors"
	"fmt"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// ErrNotFitted is returned when Score is called before a successful Fit.
var ErrNotFitted = errors.New("detector: not fitted")

// ErrEmptyReference is returned when Fit receives no reference samples.
var ErrEmptyReference = errors.New("detector: empty reference profile")

// ErrDimension is returned when a sample's dimensionality does not match
// the fitted reference.
var ErrDimension = errors.New("detector: feature dimension mismatch")

// Detector scores transformed samples against a fitted reference profile
// (the framework's Ref). Implementations are per-vehicle and not safe
// for concurrent use.
//
// A detector exposes one or more score channels: the similarity- and
// regression-based techniques in the paper score every feature
// separately (enabling the per-feature alarm explanations of Section
// 3.3/3.6), whereas the reconstruction and conformal techniques emit a
// single aggregate channel.
//
// A detector joins the stack-wide checkpoint/restore seam in one of two
// ways. A SelfCalibrator is refitted from the checkpointed Ref on
// restore and carries no payload of its own (closest-pair). Any other
// detector implements checkpoint.Snapshotter (Grand, TranAD and
// regression do): Snapshot serialises its fitted and streaming state —
// trained weights, martingales — never its configuration, which the
// owner reconstructs by calling the technique's New with the same
// parameters before Restore. Either way, Score on the restored instance
// must return exactly what the original would have returned.
type Detector interface {
	// Name returns the canonical technique name used in result tables.
	Name() string
	// Fit (re)trains the detector on the reference profile; rows are
	// transformed samples. It replaces any previous fit.
	Fit(ref [][]float64) error
	// Score returns one anomaly score per channel for sample x. Higher
	// means more anomalous.
	Score(x []float64) ([]float64, error)
	// Channels returns the number of score channels (fixed after Fit).
	Channels() int
	// ChannelNames returns a label per channel for alarm explanations.
	ChannelNames() []string
}

// IntoScorer is an optional Detector extension for techniques whose
// scoring can run without per-sample allocation. ScoreInto writes one
// score per channel into dst, which must have length Channels().
// ScoreRunInto, which the streaming pipeline and the evaluation replay
// score through, takes this path for a detector without a RunScorer: at
// millions of records per second the per-call []float64 of Score
// dominates the garbage collector's workload.
type IntoScorer interface {
	// ScoreInto scores x into dst without allocating. dst must not
	// alias detector-internal state and is fully overwritten.
	ScoreInto(x, dst []float64) error
}

// ScoreInto scores x into dst using d's allocation-free fast path when
// it implements IntoScorer, and falls back to Score plus a copy
// otherwise. dst must have length d.Channels().
func ScoreInto(d Detector, x, dst []float64) error {
	if is, ok := d.(IntoScorer); ok {
		return is.ScoreInto(x, dst)
	}
	s, err := d.Score(x)
	if err != nil {
		return err
	}
	if len(s) != len(dst) {
		return ErrDimension
	}
	copy(dst, s)
	return nil
}

// RunScorer is an optional Detector extension for techniques that score
// a run of consecutive samples of one stream faster together than one at
// a time (TranAD turns a run's per-window products into whole-run
// products). ScoreRunInto writes sample i's scores to
// dst[i·Channels():(i+1)·Channels()], bit for bit what len(xs)
// successive ScoreInto calls would write, and leaves the detector where
// those calls would leave it.
type RunScorer interface {
	ScoreRunInto(xs [][]float64, dst []float64) error
}

// ScoreRunInto scores the consecutive samples xs into dst (len(xs) ·
// d.Channels() values, sample-major) through d's RunScorer when it has
// one, and one ScoreInto per sample when it does not.
func ScoreRunInto(d Detector, xs [][]float64, dst []float64) error {
	if rs, ok := d.(RunScorer); ok {
		return rs.ScoreRunInto(xs, dst)
	}
	ch := d.Channels()
	if len(dst) != len(xs)*ch {
		return ErrDimension
	}
	for i, x := range xs {
		if err := ScoreInto(d, x, dst[i*ch:(i+1)*ch]); err != nil {
			return err
		}
	}
	return nil
}

// Replicator is an optional Detector extension for techniques that can
// build a fresh, unfitted detector with their own configuration. An
// offline run (core.RunVehicle) fits each later Ref segment on a fresh
// replica of its own, on fitpool; a detector without it fits them one at
// a time. A replica fitted and scored on a segment must return what the
// original, refit on it, would have returned.
type Replicator interface {
	Replicate() Detector
}

// ErrBadSnapshot is returned by Restore when a snapshot payload does not
// decode as state for this detector type and configuration.
var ErrBadSnapshot = errors.New("detector: malformed snapshot")

// CheckTag reads a snapshot payload's leading tag and refuses one that is
// not want, naming both. The techniques' tags are 11 (Grand), 12
// (TranAD) and 16 (regression). 10 was closest-pair's, which now refits
// from Ref, 13 the regression layout whose regressors carried gbt's
// retired fixed fields, and 14 and 15 were the removed isolation-forest
// and MLP detectors: all four are retired, never to be reused, so a
// snapshot one of them wrote fails to restore by name.
func CheckTag(r *checkpoint.RBuf, want uint8) error {
	if got := r.Uint8(); got != want {
		return fmt.Errorf("%w: tag %d, want %d", ErrBadSnapshot, got, want)
	}
	return nil
}

// SelfCalibrator is an optional Detector extension for techniques that
// can score their own reference data leave-one-out. When implemented,
// the pipeline fits the detector on the FULL reference profile and
// calibrates thresholds from the leave-one-out scores instead of holding
// out a calibration tail — both the fit and the calibration then see all
// of Ref, which matters when profiles are only a few dozen samples.
//
// Fit must be a deterministic function of ref: a checkpoint carries no
// payload for a SelfCalibrator, and restore calls Fit on the
// checkpointed Ref.
type SelfCalibrator interface {
	// LOOScores returns, for each reference sample used in the last
	// Fit, its per-channel score computed as if that sample were not
	// part of the reference.
	LOOScores() [][]float64
}

// Alarm is an emitted anomaly alert with its explanation.
type Alarm struct {
	VehicleID string
	Time      time.Time
	Channel   int     // which score channel fired
	Feature   string  // human-readable channel label
	Score     float64 // the offending score
	Threshold float64 // the threshold it violated
}

// NumberedChannels builds fallback channel names ("feature-0", ...)
// when the caller provides none.
func NumberedChannels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "feature-" + itoa(i)
	}
	return out
}

// itoa avoids importing strconv for a two-digit label.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
