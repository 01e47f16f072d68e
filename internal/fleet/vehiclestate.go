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

// VehicleUnavailableError is returned by IngestRecord, IngestBatch and
// Replay when a record or event arrives for a vehicle that is cordoned
// or mid-handoff. It is a retryable condition, not a stream error: the
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

// setCordon records a vehicle's availability state. It holds the
// owning shard's ingest mutex around the fence write, and ordering
// matters: once setCordon returns, no producer can enqueue the
// vehicle's envelopes, and anything enqueued before sits ahead of any
// barrier a subsequent quiesceShard posts — so an extraction that
// cordons first observes every admitted record.
func (e *Engine) setCordon(id, state string) {
	s := e.shardFor(id)
	s.mu.Lock()
	setCordonLocked(s, id, state)
	s.mu.Unlock()
}

// setCordonLocked is setCordon with the shard's ingest mutex already
// held by the caller.
func setCordonLocked(s *shard, id, state string) {
	s.cordonMu.Lock()
	if s.cordon == nil {
		s.cordon = map[string]string{}
	}
	if _, ok := s.cordon[id]; !ok {
		s.cordonN.Add(1)
	}
	s.cordon[id] = state
	s.cordonMu.Unlock()
}

// swapCordonLocked sets a vehicle's availability state and returns
// the previous one ("" when the vehicle was serving), as a single
// operation under the shard's cordon lock. The caller holds the
// shard's ingest mutex.
func swapCordonLocked(s *shard, id, state string) (prev string) {
	s.cordonMu.Lock()
	if s.cordon == nil {
		s.cordon = map[string]string{}
	}
	prev = s.cordon[id]
	if prev == "" {
		s.cordonN.Add(1)
	}
	s.cordon[id] = state
	s.cordonMu.Unlock()
	return prev
}

// swapCordon is swapCordonLocked with the shard's ingest mutex taken:
// reading the previous fence and writing the new one are one atomic
// step, so a concurrent Cordon/Uncordon can never slip between the
// read and the write and be lost.
func (e *Engine) swapCordon(id, state string) (prev string) {
	s := e.shardFor(id)
	s.mu.Lock()
	prev = swapCordonLocked(s, id, state)
	s.mu.Unlock()
	return prev
}

// restoreCordon undoes a swapCordon(id, StateMigrating) after a failed
// extraction: prev is restored (or the fence cleared when prev was
// empty) only while the vehicle is still marked migrating — a
// Cordon/Uncordon that raced in after the swap wins over the restore
// instead of being resurrected or stomped.
func (e *Engine) restoreCordon(id, prev string) {
	s := e.shardFor(id)
	s.mu.Lock()
	s.cordonMu.Lock()
	if s.cordon[id] == StateMigrating {
		if prev == "" {
			delete(s.cordon, id)
			s.cordonN.Add(-1)
		} else {
			s.cordon[id] = prev
		}
	}
	s.cordonMu.Unlock()
	s.mu.Unlock()
}

// clearCordon removes a vehicle's availability mark.
func (e *Engine) clearCordon(id string) {
	s := e.shardFor(id)
	s.mu.Lock()
	clearCordonLocked(s, id)
	s.mu.Unlock()
}

// clearCordonLocked is clearCordon with the shard's ingest mutex
// already held by the caller.
func clearCordonLocked(s *shard, id string) {
	s.cordonMu.Lock()
	if _, ok := s.cordon[id]; ok {
		delete(s.cordon, id)
		s.cordonN.Add(-1)
	}
	s.cordonMu.Unlock()
}

// Cordon fences a vehicle: its handler stays resident and keeps any
// already-queued envelopes, but new ingest is refused with
// VehicleUnavailableError until Uncordon (or until another engine
// adopts the vehicle after an extraction). Cordoning an unknown
// vehicle is allowed — it pre-fences a vehicle expected to arrive.
func (e *Engine) Cordon(vehicleID string) { e.setCordon(vehicleID, StateCordoned) }

// Uncordon lifts a vehicle's fence.
func (e *Engine) Uncordon(vehicleID string) { e.clearCordon(vehicleID) }

// CordonState reports a vehicle's availability mark ("" when the
// vehicle is serving normally).
func (e *Engine) CordonState(vehicleID string) string {
	s := e.shardFor(vehicleID)
	s.cordonMu.Lock()
	st := s.cordon[vehicleID]
	s.cordonMu.Unlock()
	return st
}

// snapshotVehicle captures one handler as a movable VehicleState.
// Callers guarantee exclusive access to the handler (shard quiesced or
// engine closed).
func snapshotVehicle(id string, h Handler) (VehicleState, error) {
	sn, ok := h.(Snapshotter)
	if !ok {
		return VehicleState{}, fmt.Errorf("%w: vehicle %s handler %T", ErrNotSnapshottable, id, h)
	}
	snap, err := sn.Snapshot()
	if err != nil {
		return VehicleState{}, fmt.Errorf("fleet: snapshot vehicle %s: %w", id, err)
	}
	return VehicleState{ID: id, Snapshot: snap}, nil
}

// extractOwned removes a vehicle from a shard the caller owns and
// returns its state.
func (e *Engine) extractOwned(s *shard, id string) (VehicleState, error) {
	h, ok := s.handlers[id]
	if !ok {
		if s.skip[id] {
			return VehicleState{}, fmt.Errorf("fleet: extract vehicle %s: %w (vehicle is skipped)", id, ErrUnknownVehicle)
		}
		return VehicleState{}, fmt.Errorf("fleet: extract vehicle %s: %w", id, ErrUnknownVehicle)
	}
	vs, err := snapshotVehicle(id, h)
	if err != nil {
		return VehicleState{}, err
	}
	delete(s.handlers, id)
	s.vehicles.Add(-1)
	return vs, nil
}

// adoptOwned installs a VehicleState into a shard the caller owns,
// building the handler from the engine's own configuration and
// restoring the state into it — the same path a whole-engine restore
// takes, so adopted vehicles continue bit-identically.
func (e *Engine) adoptOwned(s *shard, vs VehicleState) error {
	if _, exists := s.handlers[vs.ID]; exists {
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, ErrVehicleExists)
	}
	if s.skip[vs.ID] {
		return fmt.Errorf("%w: vehicle %s is both active and skipped", ErrBadCheckpoint, vs.ID)
	}
	h, err := e.buildHandler(vs.ID)
	if err != nil {
		// ErrSkipVehicle included: a config that excludes a vehicle
		// cannot host that vehicle's state.
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, err)
	}
	sn, ok := h.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: vehicle %s handler %T", ErrNotSnapshottable, vs.ID, h)
	}
	if err := sn.Restore(vs.Snapshot); err != nil {
		return fmt.Errorf("fleet: adopt vehicle %s: %w", vs.ID, err)
	}
	s.handlers[vs.ID] = h
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
//
// On a closed engine ExtractVehicle reads the stopped shard directly,
// under the same ownership contract as Checkpoint after Close.
func (e *Engine) ExtractVehicle(id string) (VehicleState, error) {
	s := e.shardFor(id)
	if e.closed.Load() {
		vs, err := e.extractOwned(s, id)
		if err != nil {
			return VehicleState{}, err
		}
		e.setCordon(id, StateMigrating)
		return vs, nil
	}
	// Cordon before quiescing: producers that got in first are flushed
	// ahead of the barrier and therefore included in the snapshot;
	// producers that come after are refused. The swap captures any
	// pre-existing fence atomically so the failure path can hand it
	// back.
	prev := e.swapCordon(id, StateMigrating)
	release := e.quiesceShard(s)
	vs, err := e.extractOwned(s, id)
	release()
	if err != nil {
		// A failed extraction must not wedge the vehicle's ingest; only
		// the migrating mark this call set is undone — an operator
		// fence, pre-existing or raced in since, stays.
		e.restoreCordon(id, prev)
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
		clearCordonLocked(s, vs.ID)
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
		for id := range s.handlers {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
