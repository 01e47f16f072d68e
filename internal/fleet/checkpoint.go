package fleet

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// This file implements whole-fleet checkpoint/restore on top of the
// per-handler snapshot seam. The state/config split mirrors
// core.Pipeline's: a checkpoint stream carries only mutable runtime
// state (per-vehicle handler snapshots, the skip set, counter totals),
// while configuration — transformers, detectors, thresholds, shard
// count, queue depth — is supplied again at restore time through a
// Config. Because state is keyed by vehicle ID and placement is
// recomputed with shardFor, a checkpoint taken at one shard count
// restores into an engine with any other shard count.

// ErrNotSnapshottable is returned by Checkpoint when a vehicle's
// handler does not implement checkpoint.Snapshotter (core.Pipeline
// does; core.TraceCollector does not), and by NewEngineFromCheckpoint
// when the restored configuration builds such a handler.
var ErrNotSnapshottable = errors.New("fleet: handler does not support snapshot/restore")

// ErrBadCheckpoint is returned when a checkpoint stream decodes at the
// container level but violates the fleet's semantic invariants
// (duplicate vehicles, unknown sections, malformed section payloads).
var ErrBadCheckpoint = errors.New("fleet: malformed checkpoint")

// Checkpoint section names.
const (
	statsSection   = "stats"
	skipSection    = "skip"
	vehicleSection = "vehicle"
)

// Checkpoint writes the engine's mutable state to w as a versioned
// checkpoint stream.
//
// It quiesces the fleet first: every shard's ingest mutex is held
// (blocking producers), pending batches are flushed, and a barrier
// envelope parks each shard goroutine at a batch boundary, so the
// serialized state is a consistent cut — every element ingested before
// Checkpoint is reflected, nothing ingested after it is. Processing
// resumes when Checkpoint returns. Checkpoint must not run concurrently
// with Close, and when DropAlarms is unset the caller must keep
// draining Alarms() while Checkpoint runs — shards may need to deliver
// alarms before they can reach the barrier. A finished run is
// checkpointed before Close; after Close, Checkpoint returns ErrClosed.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	var start time.Time
	if e.ckptH != nil {
		start = time.Now()
	}
	// After quiesce, this goroutine is the only one touching handler
	// state until release.
	release := e.quiesce()
	err := e.writeCheckpoint(w)
	release()
	if e.ckptH != nil {
		e.ckptH.Observe(time.Since(start).Seconds())
	}
	return err
}

// writeCheckpoint serializes counters, the skip set and every
// handler's snapshot. The caller has quiesced the fleet.
func (e *Engine) writeCheckpoint(w io.Writer) error {
	enc := checkpoint.NewEncoder(w)

	var stats checkpoint.Buf
	var recs, evs, scored, alarms, drops uint64
	for _, s := range e.shards {
		recs += s.recordsIn.Load()
		evs += s.eventsIn.Load()
		scored += s.scored.Load()
		alarms += s.alarms.Load()
		drops += s.drops.Load()
	}
	stats.Uint64(recs)
	stats.Uint64(evs)
	stats.Uint64(scored)
	stats.Uint64(alarms)
	stats.Uint64(drops)
	if err := enc.Section(statsSection, stats.Bytes()); err != nil {
		return err
	}

	// Sorted vehicle order makes the stream deterministic for a given
	// fleet state, whatever the shard count.
	var skipIDs []string
	var active []*vehicle
	for _, s := range e.shards {
		for id, v := range s.byID {
			if v.skipped {
				skipIDs = append(skipIDs, id)
			} else {
				active = append(active, v)
			}
		}
	}
	sort.Strings(skipIDs)
	sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })

	var sb checkpoint.Buf
	sb.Int(len(skipIDs))
	for _, id := range skipIDs {
		sb.String(id)
	}
	if err := enc.Section(skipSection, sb.Bytes()); err != nil {
		return err
	}
	for _, v := range active {
		// A whole-engine checkpoint is "extract every vehicle": each
		// section body is exactly the movable VehicleState payload a
		// handoff frame carries, so there is one per-vehicle codec.
		vs, err := snapshotVehicle(v)
		if err != nil {
			return err
		}
		if err := enc.Section(vehicleSection, vs.Encode()); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// NewEngineFromCheckpoint builds an engine from cfg, restores the
// checkpoint stream r into it and starts it. cfg must describe the
// same per-vehicle processing as the checkpointed run (each handler's
// Restore validates its own state/config compatibility) but is free to
// change the engine-level deployment: shard count and queue depth.
// Restored vehicles are re-placed by hashing their IDs over the new
// shard set; counter totals are credited to shard 0 so EngineStats
// totals continue across the restart.
//
// Typed failures: container-level problems surface the checkpoint
// package's errors (ErrBadMagic, ErrTruncated, FutureVersionError,
// ErrCorrupt inside SectionError); fleet-level violations wrap
// ErrBadCheckpoint; a configuration that cannot host the state
// surfaces ErrNotSnapshottable or the handler's own restore error.
func NewEngineFromCheckpoint(r io.Reader, cfg Config) (*Engine, error) {
	e, err := newEngineStopped(cfg)
	if err != nil {
		return nil, err
	}
	dec := checkpoint.NewDecoder(r)
	for {
		name, payload, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch name {
		case statsSection:
			rb := checkpoint.NewRBuf(payload)
			recs := rb.Uint64()
			evs := rb.Uint64()
			scored := rb.Uint64()
			alarms := rb.Uint64()
			drops := rb.Uint64()
			if err := rb.Close(); err != nil {
				return nil, fmt.Errorf("%w: stats section: %v", ErrBadCheckpoint, err)
			}
			s0 := e.shards[0]
			s0.recordsIn.Add(recs)
			s0.eventsIn.Add(evs)
			s0.scored.Add(scored)
			s0.alarms.Add(alarms)
			s0.drops.Add(drops)
		case skipSection:
			rb := checkpoint.NewRBuf(payload)
			n := rb.Int()
			// Each entry needs at least its 8-byte length prefix; a
			// hostile count cannot drive a long loop.
			if n < 0 || n*8 > len(payload) {
				return nil, fmt.Errorf("%w: skip section claims %d entries", ErrBadCheckpoint, n)
			}
			for i := 0; i < n; i++ {
				id := rb.String()
				if rb.Err() != nil {
					break
				}
				s := e.shardFor(id)
				if v := s.byID[id]; v != nil && !v.skipped {
					return nil, fmt.Errorf("%w: vehicle %s is both active and skipped", ErrBadCheckpoint, id)
				}
				s.byID[id] = &vehicle{id: id, skipped: true}
			}
			if err := rb.Close(); err != nil {
				return nil, fmt.Errorf("%w: skip section: %v", ErrBadCheckpoint, err)
			}
		case vehicleSection:
			vs, err := DecodeVehicleState(payload)
			if err != nil {
				return nil, err
			}
			s := e.shardFor(vs.ID)
			if v := s.byID[vs.ID]; v != nil && !v.skipped {
				return nil, fmt.Errorf("%w: duplicate vehicle %s", ErrBadCheckpoint, vs.ID)
			}
			// Restoring a vehicle is adopting it: the same build + restore
			// path ExtractVehicle/AdoptVehicle migration takes.
			if err := e.adoptOwned(s, vs); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown section %q", ErrBadCheckpoint, name)
		}
	}
	e.start()
	return e, nil
}
