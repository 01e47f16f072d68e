package fleet

import (
	"errors"
	"fmt"
	"sort"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// This file makes a single vehicle a first-class unit of checkpointable
// state. VehicleState is the movable representation — the same bytes
// whether it travels inside a whole-engine checkpoint stream, over an
// NVWIRE1 handoff frame between serve instances, or through an
// in-process Extract/Adopt pair — and the engine grows the two verbs
// the control plane's cordon/drain is built from:
//
//   - ExtractVehicle quiesces only the owning shard at a batch
//     boundary, snapshots the vehicle's handler (pipeline stages,
//     filter positions, trained fits, live thresholds) and removes it
//     from the fleet, leaving the vehicle cordoned so late records are
//     refused with a typed, retryable error instead of silently
//     growing a fresh diverging handler.
//   - AdoptVehicle quiesces the target shard, rebuilds the handler
//     from the engine's own configuration and restores the state into
//     it — the exact restore path a whole-engine checkpoint uses, so a
//     migrated vehicle's alarms stay bit-identical to an unmigrated
//     run.
//
// The whole-engine Checkpoint is itself written in terms of this
// codec ("extract every vehicle + engine header"), so there is one
// per-vehicle format, not two.

// Vehicle-availability states, carried in VehicleUnavailableError and
// the per-shard cordon map.
const (
	// StateCordoned marks a vehicle administratively fenced by Cordon:
	// its handler is still resident but ingest is refused until
	// Uncordon.
	StateCordoned = "cordoned"
	// StateMigrating marks a vehicle whose state has been (or is being)
	// extracted: ingest is refused here until another engine adopts it
	// — or this one re-adopts it.
	StateMigrating = "migrating"
)

// VehicleUnavailableError is returned by IngestBatch and Replay when a
// record or event arrives for a vehicle that is cordoned or
// mid-handoff. It is a retryable condition, not a stream error: the
// producer should re-resolve the vehicle's placement (the control
// plane's table, or the serving front end's 409 hint) and resend.
// For IngestBatch the refusal is all-or-nothing per vehicle — either
// every one of a vehicle's items in the call was admitted or none was
// — so a retry of the refused vehicles cannot duplicate records.
type VehicleUnavailableError struct {
	// VehicleID is the first refused vehicle.
	VehicleID string
	// State is StateCordoned or StateMigrating.
	State string
	// Refused counts the items (records + events) the call refused,
	// across all unavailable vehicles.
	Refused int
}

// Error implements error.
func (e *VehicleUnavailableError) Error() string {
	return fmt.Sprintf("fleet: vehicle %s is %s (%d items refused); retry after the handoff completes",
		e.VehicleID, e.State, e.Refused)
}

// ErrUnknownVehicle is returned by ExtractVehicle for a vehicle the
// engine has never built a handler for.
var ErrUnknownVehicle = errors.New("fleet: no state for vehicle")

// ErrVehicleExists is returned by AdoptVehicle when the engine already
// holds a live handler for the vehicle.
var ErrVehicleExists = errors.New("fleet: vehicle already active")

// VehicleState is one vehicle's complete mutable state, detached from
// any engine: the opaque handler snapshot (transformer windows, filter
// positions, reference profiles, trained detector fits, threshold
// state — everything core.Pipeline.Snapshot captures) keyed by the
// vehicle's identity. It is the unit of placement: a VehicleState
// adopted by any engine with an equivalent configuration continues the
// vehicle's stream bit-identically, whatever the shard count or host.
type VehicleState struct {
	ID       string
	Snapshot []byte
}

// Encode serializes the state as the canonical per-vehicle payload —
// the same bytes a whole-engine checkpoint stores per vehicle section
// and an NVWIRE1 handoff frame carries.
func (vs *VehicleState) Encode() []byte {
	var b checkpoint.Buf
	b.String(vs.ID)
	b.Bytes64(vs.Snapshot)
	return b.Bytes()
}

// DecodeVehicleState parses one per-vehicle payload. Malformed input
// fails with ErrBadCheckpoint-wrapped errors, never a panic — the
// payload may arrive off the network.
func DecodeVehicleState(payload []byte) (VehicleState, error) {
	rb := checkpoint.NewRBuf(payload)
	vs := VehicleState{ID: rb.String(), Snapshot: rb.Bytes64()}
	if err := rb.Close(); err != nil {
		return VehicleState{}, fmt.Errorf("%w: vehicle state: %v", ErrBadCheckpoint, err)
	}
	return vs, nil
}

// fenceLocked sets a vehicle's availability mark — or lifts it when
// state is "" — and returns the previous one ("" when the vehicle was
// serving). The caller holds the owning shard's ingest mutex, which is
// the fence's only lock, and ordering matters: once the mutex is
// released no producer can enqueue the vehicle's envelopes, and
// anything enqueued before sits ahead of any barrier a subsequent
// quiesceShard posts — so an extraction that fences first observes
// every admitted record.
func (s *shard) fenceLocked(id, state string) (prev string) {
	prev = s.cordon[id]
	if state == "" {
		delete(s.cordon, id)
	} else {
		s.cordon[id] = state
	}
	return prev
}

// fence is fenceLocked with the shard's ingest mutex taken: reading the
// previous mark and writing the new one are one step, so a concurrent
// Cordon/Uncordon can never slip between the read and the write and be
// lost.
func (e *Engine) fence(id, state string) (prev string) {
	s := e.shardFor(id)
	s.mu.Lock()
	prev = s.fenceLocked(id, state)
	s.mu.Unlock()
	return prev
}

// Cordon fences a vehicle: its handler stays resident and keeps any
// already-queued envelopes, but new ingest is refused with
// VehicleUnavailableError until Uncordon (or until another engine
// adopts the vehicle after an extraction). Cordoning an unknown
// vehicle is allowed — it pre-fences a vehicle expected to arrive.
func (e *Engine) Cordon(vehicleID string) { e.fence(vehicleID, StateCordoned) }

// Uncordon lifts a vehicle's fence.
func (e *Engine) Uncordon(vehicleID string) { e.fence(vehicleID, "") }

// CordonState reports a vehicle's availability mark ("" when the
// vehicle is serving normally). It takes the owning shard's ingest
// mutex, so beside a producer blocked on that shard's full queue, or a
// quiesce of it, the answer arrives when they finish.
func (e *Engine) CordonState(vehicleID string) string {
	s := e.shardFor(vehicleID)
	s.mu.Lock()
	st := s.cordon[vehicleID]
	s.mu.Unlock()
	return st
}

// snapshotVehicle captures one vehicle as a movable VehicleState.
// The caller has quiesced the vehicle's shard.
func snapshotVehicle(v *vehicle) (VehicleState, error) {
	if v.snap == nil {
		return VehicleState{}, fmt.Errorf("%w: vehicle %s handler %T", ErrNotSnapshottable, v.id, v.h)
	}
	snap, err := v.snap.Snapshot()
	if err != nil {
		return VehicleState{}, fmt.Errorf("fleet: snapshot vehicle %s: %w", v.id, err)
	}
	return VehicleState{ID: v.id, Snapshot: snap}, nil
}

// extractOwned removes a vehicle from a shard the caller owns and
// returns its state.
func (e *Engine) extractOwned(s *shard, id string) (VehicleState, error) {
	v := s.byID[id]
	switch {
	case v == nil:
		return VehicleState{}, fmt.Errorf("fleet: extract vehicle %s: %w", id, ErrUnknownVehicle)
	case v.skipped:
		return VehicleState{}, fmt.Errorf("fleet: extract vehicle %s: %w (vehicle is skipped)", id, ErrUnknownVehicle)
	}
	vs, err := snapshotVehicle(v)
	if err != nil {
		return VehicleState{}, err
	}
	delete(s.byID, id)
	s.vehicles.Add(-1)
	return vs, nil
}

// adoptOwned installs a VehicleState into a shard the caller owns,
// building the handler from the engine's own configuration and
// restoring the state into it — the same path a whole-engine restore
// takes, so adopted vehicles continue bit-identically.
func (e *Engine) adoptOwned(s *shard, vs VehicleState) error {
	if old := s.byID[vs.ID]; old != nil {
		if old.skipped {
			return fmt.Errorf("%w: vehicle %s is both active and skipped", ErrBadCheckpoint, vs.ID)
		}
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, ErrVehicleExists)
	}
	v, err := e.buildVehicle(vs.ID)
	if err != nil {
		// ErrSkipVehicle included: a config that excludes a vehicle
		// cannot host that vehicle's state.
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, err)
	}
	if v.snap == nil {
		return fmt.Errorf("%w: vehicle %s handler %T", ErrNotSnapshottable, vs.ID, v.h)
	}
	if err := v.snap.Restore(vs.Snapshot); err != nil {
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, err)
	}
	s.byID[vs.ID] = v
	s.vehicles.Add(1)
	return nil
}

// ExtractVehicle detaches one vehicle from a live engine: the vehicle
// is cordoned (late producers get VehicleUnavailableError), only the
// owning shard is quiesced at a batch boundary — the rest of the fleet
// keeps scoring — and the handler's state comes back as a movable
// VehicleState while the vehicle is removed here. The cordon mark
// stays behind (state "migrating") so records that keep arriving for
// the moved vehicle are refused with a retry hint rather than silently
// re-warming a fresh handler; AdoptVehicle on this engine lifts it.
// After Close, ExtractVehicle returns ErrClosed.
func (e *Engine) ExtractVehicle(id string) (VehicleState, error) {
	if e.closed.Load() {
		return VehicleState{}, ErrClosed
	}
	s := e.shardFor(id)
	// Fence before quiescing: producers that got in first are flushed
	// ahead of the barrier and therefore included in the snapshot;
	// producers that come after are refused. The previous mark is kept
	// so the failure path can hand it back.
	prev := e.fence(id, StateMigrating)
	release := e.quiesceShard(s)
	vs, err := e.extractOwned(s, id)
	release()
	if err != nil {
		// A failed extraction must not wedge the vehicle's ingest. Only
		// the migrating mark this call set is undone: prev comes back (or
		// the fence lifts when there was none) while the vehicle is still
		// marked migrating, so a Cordon/Uncordon that raced in after the
		// fence wins instead of being resurrected or stomped.
		s.mu.Lock()
		if s.cordon[id] == StateMigrating {
			s.fenceLocked(id, prev)
		}
		s.mu.Unlock()
		return VehicleState{}, err
	}
	return vs, nil
}

// AdoptVehicle attaches a VehicleState to this engine: the owning
// shard is quiesced at a batch boundary, the handler is rebuilt from
// this engine's configuration, the state restored into it, and any
// cordon mark lifted — from the release on, the vehicle's ingest and
// scoring continue here exactly where the source engine left off.
// Typical errors are typed: ErrVehicleExists for a double adoption,
// ErrNotSnapshottable for a configuration whose handlers cannot host
// state, the handler's own restore error for incompatible state.
func (e *Engine) AdoptVehicle(vs VehicleState) error {
	if e.closed.Load() {
		return ErrClosed
	}
	s := e.shardFor(vs.ID)
	release := e.quiesceShard(s)
	err := e.adoptOwned(s, vs)
	if err == nil {
		// Still under the shard's ingest mutex (held by the quiesce), so
		// the cordon lifts atomically with the handler becoming live.
		s.fenceLocked(vs.ID, "")
	}
	release()
	return err
}

// VehicleIDs returns the IDs of every vehicle with an active handler,
// sorted. On a live engine it takes a fleet-wide batch-boundary
// quiesce (the same consistency cut as StatsConsistent); on a closed
// engine it reads the stopped shards directly.
func (e *Engine) VehicleIDs() []string {
	if !e.closed.Load() {
		release := e.quiesce()
		defer release()
	}
	var ids []string
	for _, s := range e.shards {
		for id, v := range s.byID {
			if !v.skipped {
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}
