package fleet

import (
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// ingestStage is the producer-local staging area IngestBatch and Replay
// reuse across calls: one envelope run per shard, so a whole run
// crosses each shard's ingest mutex in a single critical section
// instead of one lock round trip per record.
type ingestStage struct {
	perShard [][]envelope
}

func (e *Engine) getStage() *ingestStage {
	if st, _ := e.stagePool.Get().(*ingestStage); st != nil {
		return st
	}
	return &ingestStage{perShard: make([][]envelope, len(e.shards))}
}

// admitStage hands every shard's staged run to enqueueStaged.
func (e *Engine) admitStage(st *ingestStage, refusal *VehicleUnavailableError) {
	for i, staged := range st.perShard {
		if len(staged) > 0 {
			e.enqueueStaged(e.shards[i], staged, refusal)
		}
	}
}

// putStage empties the stage and returns it to the pool.
func (e *Engine) putStage(st *ingestStage) {
	for i := range st.perShard {
		st.perShard[i] = st.perShard[i][:0]
	}
	e.stagePool.Put(st)
}

// IngestBatch queues a whole decoded batch — records and events merged
// chronologically, events before same-timestamp records, exactly as
// Replay orders them — routing it to shards in one pass. It pays the
// shard hash once per item but the ingest mutex only once per (shard,
// batch), which is what keeps a network ingest path off the engine's
// synchronisation edges. Each input slice must be time-sorted (the
// usual telemetry upload shape); unsorted batches are handled but fall
// back to a sorting merge. A streaming producer with one record at a
// time passes one-item slices: admission stays allocation-free.
//
// Backpressure: a full shard queue blocks the call (holding only that
// shard's ingest mutex) until the shard drains. A partial batch stays
// pending — call Flush to push tails out when latency matters more than
// batching. Safe for concurrent use; per-shard envelope order follows
// per-producer call order.
//
// Items for a cordoned or mid-handoff vehicle are refused with a typed
// *VehicleUnavailableError. The refusal is all-or-nothing per vehicle
// (a vehicle's items all hash to one shard and are filtered before any
// of them is enqueued) but not per call: other vehicles' items in the
// same batch are admitted normally, and the error reports how many
// items were refused so the producer can retry exactly those vehicles
// against their new placement.
func (e *Engine) IngestBatch(records []timeseries.Record, events []obd.Event) error {
	return e.IngestBatchCtx(records, events, nil)
}

// IngestBatchCtx is IngestBatch with provenance: every envelope of the
// batch carries bc by pointer, so alarms raised by these records can
// report which ingest batch caused them and how long the path took.
// bc.Enqueue is stamped here, once, when the batch enters the shard
// queues — before the first channel send, so the channel's
// happens-before edge publishes the stamp to every consumer (a fast
// shard can start delivering while other shards' envelopes are still
// being enqueued). Producer blocking on a full queue therefore counts
// as queue wait. bc must not be mutated by the caller afterwards. A
// nil bc is plain IngestBatch.
func (e *Engine) IngestBatchCtx(records []timeseries.Record, events []obd.Event, bc *obs.BatchCtx) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(records) == 0 && len(events) == 0 {
		return nil
	}
	st := e.getStage()
	push := func(env envelope, vehicleID string) error {
		env.prov = bc
		i := e.shardFor(vehicleID).index
		st.perShard[i] = append(st.perShard[i], env)
		return nil
	}
	err := core.Merged("", records, events,
		func(ev obd.Event) error { return push(envelope{isEvent: true, ev: ev}, ev.VehicleID) },
		func(r timeseries.Record) error { return push(envelope{rec: r}, r.VehicleID) })
	var refusal VehicleUnavailableError
	if err == nil {
		if bc != nil {
			// Stamped before the first channel send: consumers read
			// Enqueue through the channel's happens-before edge.
			bc.Enqueue = time.Now()
		}
		e.admitStage(st, &refusal)
		if bc != nil {
			e.cfg.Observer.TracedBatch()
		}
	}
	e.putStage(st)
	if err == nil && refusal.Refused > 0 {
		// Copied so refusal itself stays on the stack: the admitted path
		// must not allocate.
		err := refusal
		return &err
	}
	return err
}

// replayStageBatches bounds what Replay stages for one shard before
// admitting it, in batches. A whole-stream stage would cost one
// envelope copy of the input (hundreds of MB on a fleet-sized replay);
// 16 batches keeps the ingest mutex to one acquisition per ~1000
// envelopes while the stage stays a few hundred KB per shard.
const replayStageBatches = 16

// Replay feeds whole record and event streams through the engine in
// chronological order — events before same-timestamp records, exactly as
// core.RunVehicle merges them — and flushes. It admits through the same
// staging and enqueueStaged as IngestBatch, a bounded chunk per shard
// at a time, so it may run beside any other producer, Checkpoint,
// StatsConsistent or a vehicle handoff. It does not Close the engine,
// so streams can be replayed back to back.
//
// Items for a cordoned or mid-handoff vehicle are refused and reported
// in a *VehicleUnavailableError after the rest of the stream has been
// admitted. Refusal is decided per staged chunk, not once per call: a
// fence that goes up while Replay runs refuses the vehicle's later
// chunks only. Producers that need IngestBatch's all-or-nothing retry
// contract (the HTTP front end) use IngestBatch.
func (e *Engine) Replay(records []timeseries.Record, events []obd.Event) error {
	if e.closed.Load() {
		return ErrClosed
	}
	st := e.getStage()
	var refusal VehicleUnavailableError
	push := func(env envelope, vehicleID string) error {
		s := e.shardFor(vehicleID)
		staged := append(st.perShard[s.index], env)
		if len(staged) >= e.replayStage {
			e.enqueueStaged(s, staged, &refusal)
			staged = staged[:0]
		}
		st.perShard[s.index] = staged
		return nil
	}
	err := core.Merged("", records, events,
		func(ev obd.Event) error { return push(envelope{isEvent: true, ev: ev}, ev.VehicleID) },
		func(r timeseries.Record) error { return push(envelope{rec: r}, r.VehicleID) })
	e.admitStage(st, &refusal)
	e.putStage(st)
	e.Flush()
	if err == nil && refusal.Refused > 0 {
		return &refusal
	}
	return err
}

// getBatch returns an empty batch for shard s from the shard's free
// list, allocating (and counting) when the list is empty — start-up,
// until QueueDepth+2 buffers circulate.
func (e *Engine) getBatch(s *shard) []envelope {
	select {
	case b := <-s.free:
		return b
	default:
		e.batchAllocs.Add(1)
		return make([]envelope, 0, e.cfg.batchSize)
	}
}

// putBatch recycles a processed batch onto the shard's free list.
func (e *Engine) putBatch(s *shard, batch []envelope) {
	select {
	case s.free <- batch[:0]:
	default:
		// Full only if the QueueDepth+2 bound were broken; drop rather
		// than block the shard goroutine.
	}
}

// envID returns the vehicle an envelope belongs to.
func envID(env *envelope) string {
	if env.isEvent {
		return env.ev.VehicleID
	}
	return env.rec.VehicleID
}

// enqueueStaged is the only way a data batch reaches a shard queue. It
// appends one shard's staged envelopes to its pending batch under a
// single mutex acquisition, flushing full batches into the queue as
// they fill. The blocking send stays under the ingest mutex so
// concurrent producers cannot reorder a shard's batches; it is the
// backpressure point, not the hot path. When the shard has cordoned
// vehicles, their items are filtered out — before any of them is
// enqueued, so per-vehicle admission stays all-or-nothing per call —
// and counted into refusal. The filter compacts staged in place.
func (e *Engine) enqueueStaged(s *shard, staged []envelope, refusal *VehicleUnavailableError) {
	s.mu.Lock()
	if len(s.cordon) != 0 {
		kept := staged[:0]
		for i := range staged {
			id := envID(&staged[i])
			if st, fenced := s.cordon[id]; fenced {
				if refusal.VehicleID == "" {
					refusal.VehicleID = id
					refusal.State = st
				}
				refusal.Refused++
				continue
			}
			kept = append(kept, staged[i])
		}
		staged = kept
	}
	for len(staged) > 0 {
		if s.pending == nil {
			s.pending = e.getBatch(s)
		}
		free := e.cfg.batchSize - len(s.pending)
		if free > len(staged) {
			free = len(staged)
		}
		s.pending = append(s.pending, staged[:free]...)
		staged = staged[free:]
		if len(s.pending) >= e.cfg.batchSize {
			flushPendingLocked(s)
		}
	}
	s.mu.Unlock()
}

// flushPendingLocked sends the shard's pending batch, if any, into its
// queue. The caller holds s.mu.
func flushPendingLocked(s *shard) {
	if len(s.pending) > 0 {
		batch := s.pending
		s.pending = nil
		s.in <- batch
	}
}

// Flush pushes every shard's partially filled batch into its queue.
func (e *Engine) Flush() {
	for _, s := range e.shards {
		s.mu.Lock()
		flushPendingLocked(s)
		s.mu.Unlock()
	}
}
