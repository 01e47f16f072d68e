package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/fitpool"
)

// vehicle is everything a shard knows about one of its vehicles: the
// handler, the handler's optional seams resolved once when the entry is
// built, and the vehicle's place in the shard loop. An entry is owned by
// the shard goroutine (or by whoever has quiesced the shard) and needs
// no synchronisation.
type vehicle struct {
	id string
	h  Handler // nil once skipped

	// Optional seams of h, nil where h lacks the method set.
	prov ProvenanceSink
	fits FitDeferrer
	snap checkpoint.Snapshotter

	// skipped marks a vehicle excluded by configuration (ErrSkipVehicle)
	// or dropped after a handler or fit error: its envelopes are counted
	// and otherwise ignored.
	skipped bool

	// fitting is set exactly while a deferred fit for the vehicle is in
	// flight; parked queues the envelopes that arrive meanwhile, replayed
	// in order when the fit lands on fitDone. parked[replayed:] is what is
	// still to replay: a replay stops where a replayed envelope raises the
	// next fit and leaves the rest in place, ahead of later arrivals. The
	// buffer is kept across fits, so a warm vehicle parks without
	// allocating.
	fitting  bool
	parked   []envelope
	replayed int
}

// fitResult is an asynchronous fit completion, delivered back to the
// owning shard goroutine.
type fitResult struct {
	v   *vehicle
	err error
}

// maxDrainBatches bounds how many already-queued batches a shard
// processes per wakeup before re-checking fitDone and the stop signal.
const maxDrainBatches = 8

// run is the shard loop: the lock-free hot path. It exclusively owns
// s.byID, so pipeline calls need no synchronisation; asynchronous fit
// completions re-enter the loop through s.fitDone and are therefore
// landed by the same goroutine that owns the handler.
//
// Two receive paths keep channel overhead off the throughput-bound
// profile: while no fit is in flight nothing can arrive on fitDone (a
// completion is only ever sent for a vehicle marked fitting), so
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
		if s.fitting == 0 {
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
		for n := 0; n < maxDrainBatches && s.fitting == 0; n++ {
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
	// are also one-envelope slices the quiesce made, not batch-sized
	// buffers: recycled, each would cost the next producer to draw it a
	// regrow to the batch size.
	if sawBarrier {
		return
	}
	if e.batchH != nil {
		e.batchH.Observe(time.Since(batchStart).Seconds())
	}
	e.putBatch(s, batch)
}

// processEnv finds — or, on first contact, builds — the envelope's
// vehicle and delivers to it: the one table lookup an envelope costs.
func (e *Engine) processEnv(s *shard, env *envelope) {
	id := envID(env)
	v := s.byID[id]
	if v == nil {
		v = e.firstContact(s, id)
	}
	e.deliver(s, v, env)
}

// deliver feeds one envelope to its vehicle: parked when the vehicle
// has a fit in flight (preserving arrival order), counted and dropped
// when it is skipped, handled otherwise — and when the handler raised a
// deferred fit, the fit is launched on a fitpool worker and the vehicle
// marked fitting.
func (e *Engine) deliver(s *shard, v *vehicle, env *envelope) {
	if v.fitting {
		v.parked = append(v.parked, *env)
		return
	}
	if env.isEvent {
		s.eventsIn.Add(1)
		if !v.skipped {
			v.h.HandleEvent(env.ev)
		}
		return
	}
	s.recordsIn.Add(1)
	if v.skipped {
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
		if v.prov != nil {
			v.prov.SetProvenance(env.prov, s.lastDequeue)
		}
	} else if s.sawProv && v.prov != nil {
		// A shard that has ever delivered traced records must clear a
		// handler's provenance before untraced ones, or an untraced
		// record's alarm would inherit the previous frame's context.
		// Shards that never saw provenance never take this branch, so
		// Replay-only runs keep the bare hot path.
		v.prov.SetProvenance(nil, time.Time{})
	}
	h := v.h
	before := h.ScoredSamples()
	alarms, err := h.HandleRecord(env.rec)
	s.scored.Add(h.ScoredSamples() - before)
	if err != nil {
		e.failVehicle(s, v, err)
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
	if v.fits == nil {
		return
	}
	fit := v.fits.TakePendingFit()
	if fit == nil {
		return
	}
	v.fitting = true
	s.fitting++
	go func() {
		fitpool.Acquire()
		err := fit()
		fitpool.Release()
		s.fitDone <- fitResult{v: v, err: err}
	}()
}

// failVehicle drops a vehicle after a handler error, exactly as the
// synchronous path always has: record the error, forget the handler,
// skip the vehicle's future envelopes. Envelopes still parked stay, to
// be replayed — counted and dropped — like any later arrival.
func (e *Engine) failVehicle(s *shard, v *vehicle, err error) {
	e.setErr(fmt.Errorf("fleet: vehicle %s: %w", v.id, err))
	*v = vehicle{id: v.id, skipped: true, parked: v.parked, replayed: v.replayed}
	s.vehicles.Add(-1)
}

// finishFit lands one asynchronous fit completion: a failed fit drops
// the vehicle like an inline fit error would, and either way the
// envelopes parked during the fit replay in arrival order, in place. A
// replayed envelope that raises the vehicle's next fit ends the replay;
// the envelopes after it stay parked for that fit's completion.
func (e *Engine) finishFit(s *shard, res fitResult) {
	v := res.v
	v.fitting = false
	s.fitting--
	if res.err != nil {
		e.failVehicle(s, v, res.err)
	}
	for !v.fitting && v.replayed < len(v.parked) {
		v.replayed++
		e.deliver(s, v, &v.parked[v.replayed-1])
	}
	if v.replayed == len(v.parked) {
		v.parked, v.replayed = v.parked[:0], 0
	}
}

// drainFits blocks until the shard has no fit in flight, landing each
// completion (and its parked replay) as it arrives.
func (e *Engine) drainFits(s *shard) {
	for s.fitting > 0 {
		e.finishFit(s, <-s.fitDone)
	}
}

// firstContact builds the entry for a vehicle the shard has not seen.
// A vehicle the configuration excludes, or whose handler cannot be
// built, gets a skipped entry.
//
// There is no cordon check here: every envelope on the queue went
// through enqueueStaged, so it was admitted before the vehicle's fence
// went up (the fence is set under the same ingest mutex) and is flushed
// ahead of any extraction barrier. Building a first handler is always
// legitimate; an extracted vehicle cannot be re-warmed through it.
func (e *Engine) firstContact(s *shard, id string) *vehicle {
	v, err := e.buildVehicle(id)
	if err != nil {
		if !errors.Is(err, ErrSkipVehicle) {
			e.setErr(fmt.Errorf("fleet: configure vehicle %s: %w", id, err))
		}
		v = &vehicle{id: id, skipped: true}
	} else {
		s.vehicles.Add(1)
	}
	s.byID[id] = v
	return v
}

// buildVehicle constructs a vehicle's handler through whichever factory
// the config provides and resolves its optional seams, enabling
// deferred fits on handlers that support them. Checkpoint restore and
// adoption also build entries here.
func (e *Engine) buildVehicle(id string) (*vehicle, error) {
	h, err := e.newHandler(id)
	if err != nil {
		return nil, err
	}
	v := &vehicle{id: id, h: h}
	v.prov, _ = h.(ProvenanceSink)
	v.snap, _ = h.(checkpoint.Snapshotter)
	if v.fits, _ = h.(FitDeferrer); v.fits != nil {
		v.fits.SetDeferFits(true)
	}
	return v, nil
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
