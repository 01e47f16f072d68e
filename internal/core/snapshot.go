package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
)

// This file implements the pipeline half of the stack-wide state/config
// split. A Pipeline's configuration — which transformer, detector,
// thresholder, profile length, reset policy — always comes from
// NewPipeline; Snapshot captures only the mutable runtime state (the
// transformer's running sums or pending sample, the reference profile
// fill, the fitted thresholder and any detector that does not refit
// from Ref, the density persistence ring) and Restore loads it into a
// pipeline built with the same configuration. Traces are outputs, not
// state: a restored pipeline writes into whatever Trace its new
// configuration carries, seeded with the active segment's calibration
// stats so Segments stay resolvable.

// ErrNotSnapshottable is returned when the detector implements neither
// checkpoint.Snapshotter nor detector.SelfCalibrator (a custom detector
// need not).
var ErrNotSnapshottable = errors.New("core: component does not support snapshot/restore")

// ErrBadSnapshot is returned when a snapshot payload does not decode as
// state for this stage or pipeline configuration.
var ErrBadSnapshot = errors.New("core: malformed snapshot")

// Stage payload tags. Tag 20 was the transform stage without its
// ordering clock: it is never reused, so such a snapshot fails by name.
const (
	transformStageTag = uint8(23)
	detectStageTag    = uint8(21)
	pipelineTag       = uint8(22)
)

// Snapshot returns the transform stage's mutable state: its ordering
// clock with the resets still due, the transformer's running sums or
// pending sample and, when the configuration declares a stateful
// filter, the filter's state.
func (s *TransformStage) Snapshot() ([]byte, error) {
	inner, err := s.cfg.Transformer.Snapshot()
	if err != nil {
		return nil, err
	}
	var b checkpoint.Buf
	b.Uint8(transformStageTag)
	b.Time(s.clock)
	b.Time(s.lastReset)
	b.Int(len(s.due))
	for _, t := range s.due {
		b.Time(t)
	}
	b.Bytes64(inner)
	b.Bool(s.cfg.FilterState != nil)
	if s.cfg.FilterState != nil {
		fs, err := s.cfg.FilterState.Snapshot()
		if err != nil {
			return nil, err
		}
		b.Bytes64(fs)
	}
	return b.Bytes(), nil
}

// Restore loads a TransformStage snapshot into a stage built with the
// same configuration. Filter statefulness must match: state for a
// filter the new configuration does not declare (or vice versa) means
// the configurations differ, and so does an ordering clock behind its
// last reset or its due resets not ascending after it.
func (s *TransformStage) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if tag := r.Uint8(); tag != transformStageTag {
		return fmt.Errorf("%w: transform-stage tag %d, want %d", ErrBadSnapshot, tag, transformStageTag)
	}
	clock, lastReset, n := r.Time(), r.Time(), r.Int()
	ordered := !lastReset.After(clock) && n >= 0
	var due []time.Time
	for prev := clock; n > 0 && r.Err() == nil; n-- {
		t := r.Time()
		ordered = ordered && t.After(prev)
		due, prev = append(due, t), t
	}
	inner := r.Bytes64()
	hasFilter := r.Bool()
	var fs []byte
	if hasFilter {
		fs = r.Bytes64()
	}
	if err := r.Close(); err != nil {
		return err
	}
	if hasFilter != (s.cfg.FilterState != nil) {
		return fmt.Errorf("%w: filter statefulness differs between snapshot and configuration", ErrBadSnapshot)
	}
	if !ordered {
		return fmt.Errorf("%w: last reset %v and due resets %v against clock %v", ErrBadSnapshot, lastReset, due, clock)
	}
	s.clock, s.lastReset, s.due = clock, lastReset, due
	if err := s.cfg.Transformer.Restore(inner); err != nil {
		return err
	}
	if hasFilter {
		return s.cfg.FilterState.Restore(fs)
	}
	return nil
}

// Snapshot returns the detect stage's mutable state: profile fill,
// phase, density ring, streaming counters, the last calibration summary
// and the fitted detector and thresholder payloads. A self-calibrating
// detector's payload is empty: restore refits it from Ref.
func (d *DetectStage) Snapshot() ([]byte, error) {
	ds, err := d.snapshotter()
	if err != nil {
		return nil, err
	}
	var detSnap []byte
	if ds != nil {
		if detSnap, err = ds.Snapshot(); err != nil {
			return nil, err
		}
	}
	thSnap, err := d.cfg.Thresholder.Snapshot()
	if err != nil {
		return nil, err
	}
	var b checkpoint.Buf
	b.Uint8(detectStageTag)
	b.Uint8(uint8(d.state))
	b.Bool(d.state == StateDetecting)
	b.Uint64(d.scored)
	b.Float64Rows(d.ref)
	d.gate.Snapshot(&b)
	b.Float64s(d.calib.Means)
	b.Float64s(d.calib.Stds)
	b.Bytes64(detSnap)
	b.Bytes64(thSnap)
	return b.Bytes(), nil
}

// snapshotter returns the detector's snapshot seam, or nil for a
// detector.SelfCalibrator, whose state is a function of Ref.
func (d *DetectStage) snapshotter() (checkpoint.Snapshotter, error) {
	if _, ok := d.cfg.Detector.(detector.SelfCalibrator); ok {
		return nil, nil
	}
	ds, ok := d.cfg.Detector.(checkpoint.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: detector %s", ErrNotSnapshottable, d.cfg.Detector.Name())
	}
	return ds, nil
}

// Restore loads a DetectStage snapshot into a stage built with the same
// configuration. A fitted stage's self-calibrating detector is refitted
// on the restored Ref; that is not a fit the observer or the trace
// sees. Ref rows must have the pipeline transformer's width (alone, the
// first row's). When the restored stage is fitted and carries a Trace,
// the active segment's calibration stats are appended to SegCalib so
// subsequently scored samples index a valid segment.
func (d *DetectStage) Restore(data []byte) error {
	ds, err := d.snapshotter()
	if err != nil {
		return err
	}
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != detectStageTag {
		return ErrBadSnapshot
	}
	state := State(r.Uint8())
	fitted := r.Bool()
	scored := r.Uint64()
	ref := r.Float64Rows()
	gate, gateOK := d.gate.ReadSnapshot(r)
	calib := Calib{Means: r.Float64s(), Stds: r.Float64s()}
	detSnap := r.Bytes64()
	thSnap := r.Bytes64()
	if err := r.Close(); err != nil {
		return err
	}
	if state != StateCollecting && state != StateDetecting {
		return ErrBadSnapshot
	}
	if fitted != (state == StateDetecting) {
		return ErrBadSnapshot
	}
	if len(ref) > d.cfg.ProfileLength {
		return ErrBadSnapshot // snapshot from a longer profile configuration
	}
	if fitted && len(ref) != d.cfg.ProfileLength {
		// fit() only runs when the profile fills, so a fitted stage
		// always holds exactly ProfileLength samples.
		return ErrBadSnapshot
	}
	if !gateOK {
		return ErrBadSnapshot // e.g. a snapshot from a different density window
	}
	for _, row := range ref {
		if w := cmp.Or(d.dim, len(ref[0])); len(row) != w || w == 0 {
			return fmt.Errorf("%w: a Ref row of width %d, want %d", ErrBadSnapshot, len(row), w)
		}
	}
	switch {
	case ds != nil:
		if err := ds.Restore(detSnap); err != nil {
			return err
		}
	case len(detSnap) > 0:
		return fmt.Errorf("%w: detector payload tag %d: %s refits from Ref, and closest-pair's tag 10 is retired",
			ErrBadSnapshot, detSnap[0], d.cfg.Detector.Name())
	case fitted:
		if err := d.cfg.Detector.Fit(ref); err != nil {
			return fmt.Errorf("core: refit detector for %s: %w", d.vehicleID, err)
		}
	}
	if err := d.cfg.Thresholder.Restore(thSnap); err != nil {
		return err
	}
	d.state = state
	d.scored = scored
	d.ref = ref
	if d.ref == nil {
		d.ref = make([][]float64, 0, d.cfg.ProfileLength)
	}
	d.gate = gate
	d.calib = calib
	if fitted && d.cfg.Trace != nil {
		d.cfg.Trace.SegCalib = append(d.cfg.Trace.SegCalib, d.calib)
	}
	return nil
}

// ErrFitInFlight is returned by Pipeline.Snapshot between TakePendingFit
// and the LandFit that drains the queue: the state is split between a
// fitting detect stage and queued samples, which a snapshot does not
// carry. The fleet engine lands every fit before it snapshots.
var ErrFitInFlight = errors.New("core: snapshot with a fit in flight or samples queued")

// Snapshot implements the fleet engine's handler snapshot seam for the
// full per-vehicle pipeline: the transform stage's clock and
// transformer state and the detect stage's
// profile/detector/thresholder state, with the vehicle ID for
// mis-keying detection at restore.
func (p *Pipeline) Snapshot() ([]byte, error) {
	if p.inFlight || p.q.n > 0 {
		return nil, ErrFitInFlight
	}
	tsSnap, err := p.ts.Snapshot()
	if err != nil {
		return nil, err
	}
	dsSnap, err := p.ds.Snapshot()
	if err != nil {
		return nil, err
	}
	var b checkpoint.Buf
	b.Uint8(pipelineTag)
	b.String(p.vehicleID)
	b.Bytes64(tsSnap)
	b.Bytes64(dsSnap)
	return b.Bytes(), nil
}

// Restore loads a Pipeline snapshot into a pipeline built with the same
// configuration for the same vehicle.
func (p *Pipeline) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != pipelineTag {
		return ErrBadSnapshot
	}
	vehicleID := r.String()
	tsSnap := r.Bytes64()
	dsSnap := r.Bytes64()
	if err := r.Close(); err != nil {
		return err
	}
	if vehicleID != p.vehicleID {
		return fmt.Errorf("%w: snapshot for vehicle %q restored into pipeline for %q",
			ErrBadSnapshot, vehicleID, p.vehicleID)
	}
	if err := p.ts.Restore(tsSnap); err != nil {
		return err
	}
	return p.ds.Restore(dsSnap)
}
