package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/fitpool"
)

// fitResult is an asynchronous fit completion, delivered back to the
// owning shard goroutine.
type fitResult struct {
	vehicleID string
	err       error
}

// maxDrainBatches bounds how many already-queued batches a shard
// processes per wakeup before re-checking fitDone and the stop signal.
const maxDrainBatches = 8

// run is the shard loop: the lock-free hot path. It exclusively owns
// s.handlers, so pipeline calls need no synchronisation; asynchronous
// fit completions re-enter the loop through s.fitDone and are therefore
// landed by the same goroutine that owns the handler.
//
// Two receive paths keep channel overhead off the throughput-bound
// profile: while no fit is in flight nothing can arrive on fitDone (a
// completion is only ever sent for a vehicle currently in s.busy), so
// the loop blocks on a plain channel receive instead of a two-case
// select; and after each processed batch it opportunistically drains up
// to maxDrainBatches more batches that are already queued, so a shard
// running behind its producers stays on-CPU instead of parking and
// re-waking per batch.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	for {
		var batch []envelope
		var ok bool
		if len(s.busy) == 0 {
			batch, ok = <-s.in
		} else {
			select {
			case batch, ok = <-s.in:
			case res := <-s.fitDone:
				e.finishFit(s, res)
				continue
			}
		}
		if !ok {
			e.drainFits(s)
			return
		}
		e.runBatch(s, batch)
	drain:
		for n := 0; n < maxDrainBatches && len(s.busy) == 0; n++ {
			select {
			case batch, ok = <-s.in:
				if !ok {
					e.drainFits(s)
					return
				}
				e.runBatch(s, batch)
			default:
				break drain
			}
		}
	}
}

func (e *Engine) runBatch(s *shard, batch []envelope) {
	var batchStart time.Time
	if e.batchH != nil {
		batchStart = time.Now()
	}
	sawBarrier := false
	for i := range batch {
		env := &batch[i]
		if env.bar != nil {
			sawBarrier = true
			// Checkpoint barrier: a checkpoint must observe fully
			// settled handler state, so in-flight fits are drained
			// (replaying their parked envelopes) before the shard
			// acknowledges and parks at this batch boundary.
			e.drainFits(s)
			env.bar.ack.Done()
			<-env.bar.resume
			continue
		}
		e.processEnv(s, env)
	}
	// Barrier batches spend their time parked waiting on the
	// checkpointer; recording that wait would drown the histogram. They
	// are also one-envelope slices the quiesce made, not BatchSize
	// buffers: recycled, each would cost the next producer to draw it a
	// regrow to BatchSize.
	if sawBarrier {
		return
	}
	if e.batchH != nil {
		e.batchH.Observe(time.Since(batchStart).Seconds())
	}
	e.putBatch(s, batch)
}

// processEnv routes one envelope: parked when its vehicle has a fit in
// flight (preserving arrival order), delivered otherwise.
func (e *Engine) processEnv(s *shard, env *envelope) {
	id := envID(env)
	// The busy map is empty except while a fit is in flight; the len
	// check keeps the per-envelope map lookup off the common path.
	if len(s.busy) != 0 {
		if parked, inFlight := s.busy[id]; inFlight {
			s.busy[id] = append(parked, *env)
			return
		}
	}
	e.deliver(s, env, id)
}

// deliver feeds one envelope to its vehicle's handler and, when the
// handler raised a deferred fit, launches the fit on a fitpool worker
// and marks the vehicle busy.
func (e *Engine) deliver(s *shard, env *envelope, id string) {
	if env.isEvent {
		s.eventsIn.Add(1)
		if h, ok := e.handlerFor(s, id); ok {
			h.HandleEvent(env.ev)
		}
		return
	}
	s.recordsIn.Add(1)
	h, ok := e.handlerFor(s, id)
	if !ok {
		return
	}
	if env.prov != nil {
		if env.prov != s.lastProv {
			// First envelope of a new traced frame on this shard: one
			// clock read covers the whole frame's dequeue time, and the
			// frame's queue wait is observed once.
			s.lastProv = env.prov
			s.lastDequeue = time.Now()
			s.sawProv = true
			e.cfg.Observer.ObserveQueueWait(s.lastDequeue.Sub(env.prov.Enqueue))
		}
		if ps, ok := h.(ProvenanceSink); ok {
			ps.SetProvenance(env.prov, s.lastDequeue)
		}
	} else if s.sawProv {
		// A shard that has ever delivered traced records must clear a
		// handler's provenance before untraced ones, or an untraced
		// record's alarm would inherit the previous frame's context.
		// Shards that never saw provenance never take this branch, so
		// Replay-only runs keep the bare hot path.
		if ps, ok := h.(ProvenanceSink); ok {
			ps.SetProvenance(nil, time.Time{})
		}
	}
	before := h.ScoredSamples()
	alarms, err := h.HandleRecord(env.rec)
	s.scored.Add(h.ScoredSamples() - before)
	if err != nil {
		e.failVehicle(s, id, err)
		return
	}
	for _, a := range alarms {
		if e.cfg.DropAlarms {
			select {
			case e.alarmCh <- a:
				s.alarms.Add(1)
			default:
				s.drops.Add(1)
			}
		} else {
			e.alarmCh <- a
			s.alarms.Add(1)
		}
	}
	if e.cfg.SyncFits {
		return
	}
	fd, ok := h.(FitDeferrer)
	if !ok {
		return
	}
	fit := fd.TakePendingFit()
	if fit == nil {
		return
	}
	s.busy[id] = nil // in flight; parked envelopes append here
	go func() {
		fitpool.Acquire()
		err := fit()
		fitpool.Release()
		s.fitDone <- fitResult{vehicleID: id, err: err}
	}()
}

// failVehicle drops a vehicle after a handler error, exactly as the
// synchronous path always has: record the error, forget the handler,
// skip the vehicle's future envelopes.
func (e *Engine) failVehicle(s *shard, id string, err error) {
	e.setErr(fmt.Errorf("fleet: vehicle %s: %w", id, err))
	delete(s.handlers, id)
	s.skip[id] = true
	s.vehicles.Add(-1)
}

// finishFit lands one asynchronous fit completion: a failed fit drops
// the vehicle like an inline fit error would, and either way the
// envelopes parked during the fit replay in arrival order. A replayed
// envelope may raise the vehicle's next fit, re-parking the remainder.
func (e *Engine) finishFit(s *shard, res fitResult) {
	parked := s.busy[res.vehicleID]
	delete(s.busy, res.vehicleID)
	if res.err != nil {
		e.failVehicle(s, res.vehicleID, res.err)
	}
	for i := range parked {
		e.processEnv(s, &parked[i])
	}
}

// drainFits blocks until the shard has no fit in flight, landing each
// completion (and its parked replay) as it arrives.
func (e *Engine) drainFits(s *shard) {
	for len(s.busy) > 0 {
		e.finishFit(s, <-s.fitDone)
	}
}

// handlerFor returns the shard's handler for a vehicle, building it on
// first contact. Skipped and previously failed vehicles return false.
func (e *Engine) handlerFor(s *shard, vehicleID string) (Handler, bool) {
	if h, ok := s.handlers[vehicleID]; ok {
		return h, true
	}
	if s.skip[vehicleID] {
		return nil, false
	}
	// The build path has no cordon check: every envelope on the queue
	// went through enqueueStaged, so it was admitted before the
	// vehicle's fence went up (the fence is set under the same ingest
	// mutex) and is flushed ahead of any extraction barrier. Building a
	// first handler here is always legitimate; an extracted vehicle
	// cannot be re-warmed through it.
	h, err := e.buildHandler(vehicleID)
	if err != nil {
		if !errors.Is(err, ErrSkipVehicle) {
			e.setErr(fmt.Errorf("fleet: configure vehicle %s: %w", vehicleID, err))
		}
		s.skip[vehicleID] = true
		return nil, false
	}
	s.handlers[vehicleID] = h
	s.vehicles.Add(1)
	return h, true
}

// buildHandler constructs a vehicle's handler through whichever factory
// the config provides, enabling deferred fits on handlers that support
// them unless SyncFits pins the engine to inline fitting. Checkpoint
// restore also builds handlers here, so a restored fleet inherits the
// same fit mode.
func (e *Engine) buildHandler(vehicleID string) (Handler, error) {
	h, err := e.newHandler(vehicleID)
	if err != nil {
		return nil, err
	}
	if !e.cfg.SyncFits {
		if fd, ok := h.(FitDeferrer); ok {
			fd.SetDeferFits(true)
		}
	}
	return h, nil
}

func (e *Engine) newHandler(vehicleID string) (Handler, error) {
	if e.cfg.NewHandler != nil {
		h, err := e.cfg.NewHandler(vehicleID)
		if err != nil {
			return nil, err
		}
		if h == nil {
			return nil, errors.New("fleet: NewHandler returned nil handler")
		}
		return h, nil
	}
	cfg, err := e.cfg.NewConfig(vehicleID)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(vehicleID, cfg)
}
