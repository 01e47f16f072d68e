package obs

import (
	"sync"
	"time"
)

// ObserverConfig assembles an Observer.
type ObserverConfig struct {
	// Journal receives one entry per alarm when non-nil.
	Journal *Journal
	// SampleRate is the 1-in-N deterministic sampling rate for stage
	// latency timing and score-distribution observations (rounded up to
	// a power of two; default 64, 1 = observe everything). Lifecycle
	// counters and the journal are never sampled — sampling only skips
	// clock reads and the max-score scan, which dominate the
	// enabled-path overhead at nanosecond stage costs (~25 ns per clock
	// read against a ~135 ns/record hot path).
	SampleRate int
}

// Observer is the instrumentation hub threaded through core.Pipeline,
// fleet.Engine and the detectors. All its metrics live in one Registry;
// all methods are safe on a nil receiver (nil observer ⇒ no overhead),
// and none of them allocates on the scoring hot path, so instrumented
// pipelines keep the zero-allocation steady-state guarantee.
//
// One Observer aggregates across every pipeline and shard that shares
// it: metric cardinality is bounded by metric family × technique ×
// shard, never by vehicle.
type Observer struct {
	reg     *Registry
	journal *Journal
	mask    uint32

	// Pipeline stage latency histograms (seconds, sampled 1-in-N).
	transformH *Histogram
	scoreH     *Histogram
	thresholdH *Histogram
	fitH       *Histogram

	// Pipeline lifecycle counters (unsampled).
	resets      *Counter
	refills     *Counter
	warmupDrops *Counter
	staleDrops  *Counter
	alarms      *Counter

	// End-to-end provenance metrics (pdm_e2e_*), observed only on the
	// ingest and alarm paths — never per scored sample.
	e2e e2eMetrics

	// Per-technique score distributions, resolved once per stage build.
	distMu sync.Mutex
	dists  map[string]*Histogram
}

// NewObserver builds an observer registering the pipeline metric
// families in reg.
func NewObserver(reg *Registry, cfg ObserverConfig) *Observer {
	rate := cfg.SampleRate
	if rate <= 0 {
		rate = 64
	}
	mask := uint32(1)
	for int(mask) < rate {
		mask <<= 1
	}
	o := &Observer{
		reg:     reg,
		journal: cfg.Journal,
		mask:    mask - 1,
		transformH: reg.Histogram("pdm_pipeline_transform_seconds",
			"Transform-stage latency per raw record (filter + collect + emit), sampled.", DefLatencyBuckets),
		scoreH: reg.Histogram("pdm_pipeline_score_seconds",
			"Detector scoring latency per transformed sample, sampled.", DefLatencyBuckets),
		thresholdH: reg.Histogram("pdm_pipeline_threshold_seconds",
			"Threshold-check latency per scored sample, sampled.", DefLatencyBuckets),
		fitH: reg.Histogram("pdm_pipeline_fit_seconds",
			"Detector fit + threshold calibration latency per profile refill.", DefLatencyBuckets),
		resets: reg.Counter("pdm_pipeline_profile_resets_total",
			"Reference profile resets triggered by maintenance events."),
		refills: reg.Counter("pdm_pipeline_profile_refills_total",
			"Reference profiles filled and fitted (initial fills and post-reset refills)."),
		warmupDrops: reg.Counter("pdm_pipeline_warmup_drops_total",
			"Raw records dropped by the pre-transform filter (warm-up and stationary-state cleaning)."),
		staleDrops: reg.Counter("pdm_pipeline_stale_drops_total",
			"Records and resetting events no newer than their vehicle's clock, dropped by the ordering rule (re-sends)."),
		alarms: reg.Counter("pdm_pipeline_alarms_total",
			"Alarms emitted by instrumented pipelines (before day-level consolidation)."),
		e2e:   newE2EMetrics(reg),
		dists: map[string]*Histogram{},
	}
	return o
}

// Registry returns the observer's registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Journal returns the attached alarm journal (may be nil).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// SampleMask returns the sampling mask: stage timing runs when
// tick&mask == 0. Instrumented stages cache it at build time.
func (o *Observer) SampleMask() uint32 {
	if o == nil {
		return 0
	}
	return o.mask
}

// ObserveTransform records one sampled transform-stage duration.
func (o *Observer) ObserveTransform(d time.Duration) { o.transformH.Observe(d.Seconds()) }

// ObserveScore records one sampled detector-scoring duration.
func (o *Observer) ObserveScore(d time.Duration) { o.scoreH.Observe(d.Seconds()) }

// ObserveThreshold records one sampled threshold-check duration.
func (o *Observer) ObserveThreshold(d time.Duration) { o.thresholdH.Observe(d.Seconds()) }

// ObserveFit records one profile fit duration.
func (o *Observer) ObserveFit(d time.Duration) { o.fitH.Observe(d.Seconds()) }

// ProfileReset counts one maintenance-triggered profile reset.
func (o *Observer) ProfileReset() {
	if o != nil {
		o.resets.Inc()
	}
}

// ProfileRefill counts one completed profile fill + fit.
func (o *Observer) ProfileRefill() {
	if o != nil {
		o.refills.Inc()
	}
}

// WarmupDrop counts one record dropped by the pre-transform filter.
func (o *Observer) WarmupDrop() {
	if o != nil {
		o.warmupDrops.Inc()
	}
}

// StaleDrop counts one record or reset the ordering rule dropped.
func (o *Observer) StaleDrop() {
	if o != nil {
		o.staleDrops.Inc()
	}
}

// Alarms counts n emitted alarms.
func (o *Observer) Alarms(n int) {
	if o != nil && n > 0 {
		o.alarms.Add(uint64(n))
	}
}

// ScoreDist returns the score-distribution histogram for a technique
// (family pdm_detector_score, label technique). Stages resolve it once
// at build time and observe each sampled (1-in-N) scored sample's
// maximum channel score into it. Returns nil on a nil observer.
func (o *Observer) ScoreDist(technique string) *Histogram {
	if o == nil {
		return nil
	}
	o.distMu.Lock()
	defer o.distMu.Unlock()
	h, ok := o.dists[technique]
	if !ok {
		h = o.reg.Histogram("pdm_detector_score",
			"Distribution of sampled scored samples' maximum channel score, per technique.",
			DefScoreBuckets, Label{Key: "technique", Value: technique})
		o.dists[technique] = h
	}
	return h
}

// RecordAlarm appends one entry to the alarm journal (no-op without a
// journal). The alarm path already allocates, so journaling here does
// not disturb the zero-allocation steady state.
func (o *Observer) RecordAlarm(e AlarmEvent) {
	if o == nil || o.journal == nil {
		return
	}
	o.journal.Append(e)
}
