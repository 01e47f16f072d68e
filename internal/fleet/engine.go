// Package fleet implements a sharded, concurrent multi-vehicle
// streaming engine on top of the per-vehicle core.Pipeline — the
// production-scale driver the ROADMAP's fleet-level condition monitoring
// calls for.
//
// Vehicles are hashed to N shards. Each shard goroutine exclusively owns
// its vehicles' pipelines, so the scoring hot path takes no locks:
// synchronisation happens only at the edges, on the bounded per-shard
// batch channels (ingest backpressure) and the fan-in alarm channel.
// Within a shard, envelopes are processed strictly in arrival order, so
// feeding a chronologically merged stream (events before same-timestamp
// records, as core.RunVehicle orders them — Replay does this) makes the
// engine's per-vehicle behaviour bit-identical to a serial replay,
// whatever the shard count.
//
// There is one way into a shard queue: both producers — IngestBatch
// (IngestBatchCtx) and Replay — stage envelopes and hand them to
// enqueueStaged, which holds the shard's ingest mutex, applies the
// cordon fence and cuts batches of 64 envelopes. Per-shard processing
// order is therefore the order of enqueueStaged calls on that shard,
// and anything that quiesces a shard (Checkpoint, StatsConsistent,
// ExtractVehicle, AdoptVehicle) is ordered against every producer by
// that same mutex. Everything that touches handler state does so on a
// live engine through that quiesce; after Close only the counters and
// the vehicle list can be read.
package fleet

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// FitDeferrer is the optional handler seam behind asynchronous refits:
// handlers that support it (core.Pipeline does) raise profile-fill fits
// as pending closures instead of fitting inline, and the engine runs the
// closure on a fitpool worker while the shard keeps going.
//
// The contract: between TakePendingFit returning a fit and LandFit, the
// engine keeps calling HandleRecord, HandleEvent and SetProvenance on
// the shard goroutine while the fit runs on its worker. The handler
// queues what they bring and touches nothing the fit reads. Once the fit
// has returned nil, the shard goroutine calls LandFit, which drains the
// queue in arrival order and returns the alarms the drained records
// raise; a drain may raise the next fit, which the engine takes with
// TakePendingFit as it does after HandleRecord. Per-vehicle behaviour
// stays bit-identical to synchronous fits.
type FitDeferrer interface {
	SetDeferFits(bool)
	TakePendingFit() func() error
	LandFit() ([]detector.Alarm, error)
}

// ErrSkipVehicle can be returned by Config.NewConfig to tell the engine
// that a vehicle is not part of this run: its records and events are
// counted but otherwise ignored, and no pipeline is built for it.
var ErrSkipVehicle = errors.New("fleet: vehicle not in run set")

// ErrClosed is returned after Close by the ingestion methods and by
// Checkpoint, ExtractVehicle and AdoptVehicle.
var ErrClosed = errors.New("fleet: engine closed")

// Handler processes one vehicle's stream elements. core.Pipeline is the
// production handler (transform + detect + threshold); core.TraceCollector
// runs just the transform stage, which is how the evaluation grid
// materialises each (transformation, vehicle) stream exactly once.
// Handlers are owned by a single shard goroutine and need no internal
// synchronisation.
type Handler interface {
	// HandleRecord feeds one raw record, returning any alarms raised.
	HandleRecord(timeseries.Record) ([]detector.Alarm, error)
	// HandleEvent feeds one maintenance event.
	HandleEvent(obd.Event)
	// ScoredSamples reports the handler's monotone output counter (scored
	// or emitted samples); the engine aggregates deltas into shard stats.
	ScoredSamples() uint64
}

// ProvenanceSink is implemented by handlers that can attribute the
// alarms they raise to an ingest batch (core.Pipeline implements it).
// The engine calls SetProvenance before HandleRecord: with the record's
// batch context and the shard's dequeue clock read on the traced path,
// and with (nil, zero) to clear stale context when untraced records
// follow traced ones. Handlers without the method simply never carry
// provenance — the engine probes once, when it builds the vehicle's
// entry, and never requires it.
type ProvenanceSink interface {
	SetProvenance(bc *obs.BatchCtx, dequeue time.Time)
}

// Config assembles an Engine. Exactly one of NewConfig and NewHandler is
// required; everything else has defaults chosen for a laptop-scale
// deployment.
type Config struct {
	// NewConfig builds the pipeline configuration for a vehicle the
	// first time one of its records or events arrives. Return
	// ErrSkipVehicle to exclude the vehicle from the run. NewConfig is
	// called from shard goroutines, one call per vehicle; it must be
	// safe for concurrent use across vehicles.
	NewConfig func(vehicleID string) (core.Config, error)

	// NewHandler builds an arbitrary per-vehicle Handler instead of a
	// core.Pipeline — the seam that lets the same sharded engine drive
	// transform-only trace collection or custom stages. Same contract as
	// NewConfig: called once per vehicle from shard goroutines, return
	// ErrSkipVehicle to exclude a vehicle. Mutually exclusive with
	// NewConfig.
	NewHandler func(vehicleID string) (Handler, error)

	// Shards is the number of shard goroutines (default runtime.NumCPU).
	Shards int
	// QueueDepth is the per-shard channel capacity in batches (default
	// 256). A full queue blocks ingestion — that is the backpressure.
	QueueDepth int
	// DropAlarms makes shards drop (and count) alarms when the fan-in
	// channel (1024 alarms) is full instead of blocking on it.
	// Set it when alarms are advisory; leave it unset when every alarm
	// must be observed, and drain Alarms() concurrently.
	DropAlarms bool
	// Observer, when non-nil, registers the engine's fleet-level
	// metrics in the observer's registry: per-shard queue depth and
	// counters (collection-time callbacks, free on the hot path), a
	// batch-processing latency histogram and a checkpoint-duration
	// histogram. The same observer is typically also set on the
	// per-vehicle core.Config built by NewConfig, which instruments the
	// pipeline stages themselves. One registry should observe one
	// engine at a time; a newer engine's registration takes over the
	// callback series of an older one.
	Observer *obs.Observer

	// batchSize is the number of envelopes per batch (defaultBatchSize
	// when zero). Only this package's tests set it, to move batch
	// boundaries.
	batchSize int
}

const (
	// defaultBatchSize envelopes make one batch: batching amortises
	// channel synchronisation across records.
	defaultBatchSize = 64
	// alarmBuffer is the fan-in alarm channel's capacity.
	alarmBuffer = 1024
)

func (c *Config) validate() error {
	if c.NewConfig == nil && c.NewHandler == nil {
		return errors.New("fleet: Config requires NewConfig or NewHandler")
	}
	if c.NewConfig != nil && c.NewHandler != nil {
		return errors.New("fleet: Config requires exactly one of NewConfig and NewHandler")
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.batchSize <= 0 {
		c.batchSize = defaultBatchSize
	}
	return nil
}

// envelope is one queued stream element: a record, an event, or a
// checkpoint barrier. prov is the shared provenance context of the
// ingest batch the element arrived in (nil on Replay and plain
// IngestBatch): one pointer per envelope, one allocation per frame, so
// tracing never adds per-record allocations.
type envelope struct {
	isEvent bool
	rec     timeseries.Record
	ev      obd.Event
	bar     *barrier
	prov    *obs.BatchCtx
}

// barrier pauses a shard at a batch boundary: the shard acknowledges
// arrival and then parks until the checkpoint releases it. While every
// shard is parked the checkpointing goroutine is the only one touching
// handler state.
type barrier struct {
	ack    sync.WaitGroup
	resume chan struct{}
}

// shard owns a disjoint subset of the fleet's pipelines. The struct is
// laid out in ownership bands with cache-line padding between them:
// producers mutate the ingest band (mu, pending, cordon) while the shard
// goroutine bumps the counter band on every envelope, and without the
// padding those writes false-share — each counter increment would
// bounce the line holding the ingest mutex across cores and vice
// versa, which is one of the ways a shards=2 run once managed to be
// slower than shards=1.
type shard struct {
	// Read-only header, set once at construction: the shard's identity
	// and its channels. free is the shard's batch free list — consumer→
	// producer recycling. Every batch is drawn and returned under this
	// shard's own bound of QueueDepth+2 live buffers (queued, pending,
	// in process), which is the list's capacity: a draw that finds it
	// empty allocates (batchAllocs counts those) and a return never
	// finds it full. Padded from the ingest band so producers hammering
	// mu don't bounce the line the consumer re-reads these pointers from.
	index int
	in    chan []envelope
	free  chan []envelope
	_     [64]byte

	// ingest band: touched by producer goroutines, and by whoever
	// quiesces the shard, under mu. cordon is the vehicle-availability
	// fence behind Cordon and ExtractVehicle (vehicle -> StateCordoned or
	// StateMigrating; empty in the steady state, which costs enqueueStaged
	// one len check). Only admission consults it: the shard goroutine
	// never does, because everything on its queue was admitted before the
	// fence went up. Writing it under mu is what orders a new fence
	// against in-flight enqueues — envelopes admitted before the fence
	// sit ahead of any barrier a subsequent quiesce posts. CordonState
	// takes mu like every other accessor, so it waits out a producer
	// blocked on a full queue and a quiesce in progress.
	mu      sync.Mutex
	pending []envelope
	cordon  map[string]string
	_       [64]byte

	// consumer band: owned by the shard goroutine, no synchronisation.
	// byID is the one per-vehicle table: an entry appears on a vehicle's
	// first envelope (or at restore/adoption) and holds everything the
	// shard knows about it. fitting counts the entries with a fit in
	// flight, so run can pick a plain receive over a select without
	// walking the table.
	byID    map[string]*vehicle
	fitting int
	fitDone chan fitResult

	// Provenance tracking, also shard-goroutine-owned. lastProv is the
	// most recent batch context seen (pointer identity marks "same
	// frame"), lastDequeue the clock read taken when it first surfaced —
	// reused as every one of its records' dequeue time so tracing costs
	// one clock read per (shard, frame), not per record. sawProv stays
	// false until the first traced envelope, which keeps the untraced
	// deliver path (Replay, bit-identity gates, overhead gate) at a
	// single nil check.
	lastProv    *obs.BatchCtx
	lastDequeue time.Time
	sawProv     bool
	_           [64]byte

	// counter band: written by the shard goroutine per envelope, read
	// by Stats and the metrics callbacks.
	vehicles  atomic.Int64
	recordsIn atomic.Uint64
	eventsIn  atomic.Uint64
	scored    atomic.Uint64
	alarms    atomic.Uint64
	drops     atomic.Uint64
	_         [64]byte
}

// ShardStats is a point-in-time snapshot of one shard's counters.
type ShardStats struct {
	Shard         int
	Vehicles      int
	RecordsIn     uint64
	EventsIn      uint64
	SamplesScored uint64
	Alarms        uint64
	Drops         uint64
}

// EngineStats aggregates the per-shard snapshots.
type EngineStats struct {
	Shards        []ShardStats
	Vehicles      int
	RecordsIn     uint64
	EventsIn      uint64
	SamplesScored uint64
	Alarms        uint64
	Drops         uint64
}

// Engine is the sharded fleet driver. Ingestion methods are safe for
// concurrent use from any number of producers; per-vehicle processing
// order follows per-producer ingestion order.
type Engine struct {
	cfg         Config
	shards      []*shard
	alarmCh     chan detector.Alarm
	batchAllocs atomic.Uint64 // batches allocated because a shard's free list was empty
	stagePool   sync.Pool     // *ingestStage per-producer batch staging
	replayStage int           // envelopes Replay stages per shard before admitting them
	wg          sync.WaitGroup

	batchH *obs.Histogram // per-batch processing latency (nil without observer)
	ckptH  *obs.Histogram // live checkpoint duration (nil without observer)

	closed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// NewEngine builds and starts an engine; its shard goroutines run until
// Close.
func NewEngine(cfg Config) (*Engine, error) {
	e, err := newEngineStopped(cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngineStopped builds the engine's shards without starting their
// goroutines, so checkpoint restore can pre-populate the vehicle tables
// race-free before processing begins.
func newEngineStopped(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		shards:      make([]*shard, cfg.Shards),
		alarmCh:     make(chan detector.Alarm, alarmBuffer),
		replayStage: replayStageBatches * cfg.batchSize,
	}
	for i := range e.shards {
		e.shards[i] = &shard{
			index:   i,
			in:      make(chan []envelope, cfg.QueueDepth),
			free:    make(chan []envelope, cfg.QueueDepth+2),
			cordon:  map[string]string{},
			byID:    map[string]*vehicle{},
			fitDone: make(chan fitResult),
		}
	}
	e.registerMetrics()
	return e, nil
}

// registerMetrics publishes the engine's fleet-level metric families in
// the observer's registry. Everything except the two histograms is a
// collection-time callback over the shard atomics, so the shard loop
// pays nothing for them.
func (e *Engine) registerMetrics() {
	o := e.cfg.Observer
	if o == nil {
		return
	}
	reg := o.Registry()
	e.batchH = reg.Histogram("pdm_fleet_batch_seconds",
		"Shard batch processing latency (one batch = up to 64 envelopes).", obs.DefLatencyBuckets)
	e.ckptH = reg.Histogram("pdm_fleet_checkpoint_seconds",
		"Live checkpoint duration: barrier quiesce + state serialization.", obs.DefLatencyBuckets)
	reg.GaugeFunc("pdm_fleet_vehicles",
		"Vehicles with an active handler across all shards.",
		func() float64 {
			var n int64
			for _, s := range e.shards {
				n += s.vehicles.Load()
			}
			return float64(n)
		})
	for _, s := range e.shards {
		s := s
		l := obs.Label{Key: "shard", Value: strconv.Itoa(s.index)}
		reg.GaugeFunc("pdm_fleet_shard_queue_depth",
			"Queued batches per shard (capacity is QueueDepth; a full queue is the backpressure point).",
			func() float64 { return float64(len(s.in)) }, l)
		reg.CounterFunc("pdm_fleet_shard_records_total",
			"Raw records processed per shard.",
			func() float64 { return float64(s.recordsIn.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_events_total",
			"Maintenance events processed per shard.",
			func() float64 { return float64(s.eventsIn.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_samples_scored_total",
			"Transformed samples scored per shard.",
			func() float64 { return float64(s.scored.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_alarms_total",
			"Alarms delivered to the fan-in channel per shard.",
			func() float64 { return float64(s.alarms.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_alarm_drops_total",
			"Alarms dropped per shard because the fan-in channel was full (DropAlarms mode).",
			func() float64 { return float64(s.drops.Load()) }, l)
	}
}

// start launches the shard goroutines.
func (e *Engine) start() {
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.run(s)
	}
}

// Alarms returns the fan-in alarm channel. It is closed by Close, after
// all shards have drained.
func (e *Engine) Alarms() <-chan detector.Alarm { return e.alarmCh }

// shardFor hashes a vehicle ID onto its owning shard (FNV-1a).
func (e *Engine) shardFor(vehicleID string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(vehicleID); i++ {
		h ^= uint64(vehicleID[i])
		h *= prime64
	}
	return e.shards[h%uint64(len(e.shards))]
}

// Close flushes pending batches, stops every shard, closes the alarm
// channel and returns the first pipeline or configuration error the run
// encountered (nil on a clean run). Producers must have stopped
// ingesting before Close is called; Close only synchronises with the
// consumer side.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return e.Err()
	}
	e.Flush()
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	close(e.alarmCh)
	return e.Err()
}

// Err returns the first error recorded by any shard (sticky).
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// Stats snapshots the per-shard counters. Safe to call at any time from
// any goroutine.
//
// Consistency semantics: each counter is read atomically, but the
// group is not — a shard mid-batch may have counted a record in
// RecordsIn whose scored samples or alarms are not yet in
// SamplesScored/Alarms, and different shards are read at slightly
// different instants. A record is counted when its shard dequeues it:
// the samples a vehicle queues behind a fit in flight are in RecordsIn
// but not yet in SamplesScored. Totals are exact once the engine is
// closed (or quiesced). Use StatsConsistent for a cross-counter-
// consistent cut of a live engine.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:         i,
			Vehicles:      int(s.vehicles.Load()),
			RecordsIn:     s.recordsIn.Load(),
			EventsIn:      s.eventsIn.Load(),
			SamplesScored: s.scored.Load(),
			Alarms:        s.alarms.Load(),
			Drops:         s.drops.Load(),
		}
		st.Shards[i] = ss
		st.Vehicles += ss.Vehicles
		st.RecordsIn += ss.RecordsIn
		st.EventsIn += ss.EventsIn
		st.SamplesScored += ss.SamplesScored
		st.Alarms += ss.Alarms
		st.Drops += ss.Drops
	}
	return st
}

// StatsConsistent snapshots the per-shard counters at a batch
// boundary: it reuses the checkpoint barrier to park every shard
// between batches, reads the counters while nothing is in flight, and
// releases the fleet. The returned stats are therefore a consistent
// cut — every ingested element is either fully reflected (record,
// derived samples, alarms) or not at all.
//
// It shares the live-checkpoint restrictions: do not call it
// concurrently with Close, and keep draining Alarms() while it runs
// when DropAlarms is unset. On a closed engine it is plain
// Stats (already exact). Cost is one fleet quiesce — micro to
// milliseconds — so prefer Stats for dashboards polling at high rates.
func (e *Engine) StatsConsistent() EngineStats {
	if e.closed.Load() {
		return e.Stats()
	}
	release := e.quiesce()
	st := e.Stats()
	release()
	return st
}

// postBarrierLocked flushes the shard's pending batch and queues bar
// behind it: the shard drains everything admitted so far — in-flight
// fits included — then acknowledges and parks until bar.resume closes.
// The caller holds s.mu, and keeps holding it until the release.
func postBarrierLocked(s *shard, bar *barrier) {
	flushPendingLocked(s)
	s.in <- []envelope{{bar: bar}}
}

// quiesceShard parks one shard goroutine at a batch boundary and blocks
// its producers on the ingest mutex. Between quiesceShard and release
// the caller is the only goroutine touching that shard's handlers;
// every other shard keeps scoring. Callers obey the live-checkpoint
// restrictions scoped to this shard: no concurrent Close, and alarms
// drained when DropAlarms is unset.
func (e *Engine) quiesceShard(s *shard) (release func()) {
	s.mu.Lock()
	bar := &barrier{resume: make(chan struct{})}
	bar.ack.Add(1)
	postBarrierLocked(s, bar)
	bar.ack.Wait()
	return func() {
		close(bar.resume)
		s.mu.Unlock()
	}
}

// quiesce is quiesceShard for the whole fleet at once: every ingest
// mutex is taken, one shared barrier is posted to each shard, and the
// call returns when all of them have parked. Between quiesce and
// release the caller is the only goroutine touching handler state.
func (e *Engine) quiesce() (release func()) {
	for _, s := range e.shards {
		s.mu.Lock()
	}
	bar := &barrier{resume: make(chan struct{})}
	bar.ack.Add(len(e.shards))
	for _, s := range e.shards {
		postBarrierLocked(s, bar)
	}
	bar.ack.Wait()
	return func() {
		close(bar.resume)
		for _, s := range e.shards {
			s.mu.Unlock()
		}
	}
}
