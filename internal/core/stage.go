package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// This file splits Algorithm 1 into its two independent stages.
//
// The transform stage (filter + streaming transformation + reset
// bookkeeping) depends only on the raw stream and the transformation
// kind; the detect stage (profile fill, fit, calibration, scoring,
// density persistence) depends on the detector but consumes only
// transformed samples. Pipeline composes the two for streaming use; the
// evaluation grid runs the transform stage exactly once per
// (transformation, vehicle), caches the result as a TransformedTrace,
// and replays every detector over the cache with DetectOnTrace.

// TransformConfig assembles a TransformStage.
type TransformConfig struct {
	Transformer transform.Transformer
	// Filter drops raw records before transformation; nil means the
	// paper's default of removing stationary-state and sensor-fault
	// records.
	Filter func(*timeseries.Record) bool
	// FilterState exposes a stateful Filter's mutable state to the
	// snapshot seam (see Config.FilterState).
	FilterState checkpoint.Snapshotter
	// ResetPolicy selects which maintenance events reset the stage (and,
	// downstream, rebuild Ref).
	ResetPolicy ResetPolicy
	// Observer, when non-nil, records filter drops and sampled
	// transform-stage latency. Nil means no instrumentation and no
	// overhead on the hot path.
	Observer *obs.Observer
}

// TransformStage is the streaming front half of the pipeline: it
// filters raw records, feeds the transformer and applies the resets
// maintenance events call for, under one ordering rule per vehicle:
// time only moves forward (see Feed and Event). Not safe for concurrent
// use.
type TransformStage struct {
	cfg    TransformConfig
	recBuf timeseries.Record // staging for Filter's pointer argument

	// clock is the latest record time taken, lastReset the latest reset
	// applied and due the resetting events ahead of clock, ascending.
	// onReset is the owner's half of a reset.
	clock, lastReset time.Time
	due              []time.Time
	onReset          func(time.Time)

	o       *obs.Observer
	obsTick uint32
	obsMask uint32
}

// NewTransformStage builds a transform stage. Transformer is required.
func NewTransformStage(cfg TransformConfig) (*TransformStage, error) {
	if cfg.Transformer == nil {
		return nil, errors.New("core: TransformConfig requires Transformer")
	}
	if cfg.Filter == nil {
		cfg.Filter = timeseries.CleanFilter
	}
	return &TransformStage{cfg: cfg, onReset: func(time.Time) {}, o: cfg.Observer, obsMask: cfg.Observer.SampleMask()}, nil
}

// Feed pushes one raw record through the filter into the transformer and
// reports whether a transformed sample is ready to emit. A record no
// newer than the clock is a counted no-op, so a re-send changes nothing;
// any other first applies the resets due at or before its time. With an
// observer, every filter drop is counted and a deterministic 1-in-N
// sample of records is timed through the filter + collect path.
// Sampling only skips clock reads — at nanosecond per-record costs the
// clock IS the overhead — and keeps the instrumented hot path
// allocation-free.
func (s *TransformStage) Feed(r timeseries.Record) bool {
	if !r.Time.After(s.clock) {
		s.o.StaleDrop()
		return false
	}
	s.clock = r.Time
	for len(s.due) > 0 && !s.due[0].After(r.Time) {
		s.reset(s.due[0])
		s.due = s.due[1:]
	}
	// Filter takes a pointer; staging the record in a stage-owned buffer
	// keeps the parameter itself from escaping to the heap on every call.
	s.recBuf = r
	timed := false
	var t0 time.Time
	if s.o != nil {
		s.obsTick++
		if timed = s.obsTick&s.obsMask == 0; timed {
			t0 = time.Now()
		}
	}
	kept := s.cfg.Filter(&s.recBuf)
	ready := false
	if kept {
		s.cfg.Transformer.Collect(s.recBuf)
		ready = s.cfg.Transformer.Ready()
	}
	if timed {
		s.o.ObserveTransform(time.Since(t0))
	}
	if !kept {
		s.o.WarmupDrop()
	}
	return ready
}

// Event takes a maintenance event, ignoring one the ResetPolicy does not
// reset on. A reset no newer than the last one applied, or already due,
// is a counted no-op; one no newer than the clock is late and applies at
// once; any other is due, so records grouped by vehicle meet their
// events as a chronological replay would.
func (s *TransformStage) Event(ev obd.Event) {
	all := s.cfg.ResetPolicy == ResetOnAllEvents && ev.IsReset()
	if !all && (s.cfg.ResetPolicy != ResetOnRepairsOnly || ev.Type != obd.EventRepair) {
		return
	}
	i, found := slices.BinarySearchFunc(s.due, ev.Time, time.Time.Compare)
	switch {
	case found || !ev.Time.After(s.lastReset):
		s.o.StaleDrop()
	case !ev.Time.After(s.clock):
		s.reset(ev.Time)
	default:
		s.due = slices.Insert(s.due, i, ev.Time)
	}
}

// reset clears the transformer's buffered state and hands the reset to
// the stage's owner.
func (s *TransformStage) reset(t time.Time) {
	s.lastReset = t
	s.cfg.Transformer.Reset()
	s.onReset(t)
}

// Emit returns the ready sample as a freshly allocated vector (safe to
// retain, e.g. in Ref or a trace).
func (s *TransformStage) Emit() []float64 {
	x := make([]float64, s.cfg.Transformer.Dim())
	s.cfg.Transformer.EmitInto(x)
	return x
}

// EmitInto writes the ready sample into dst, which must have the
// transformer's width.
func (s *TransformStage) EmitInto(dst []float64) { s.cfg.Transformer.EmitInto(dst) }

// TransformedTrace is the cached output of the transform stage for one
// vehicle: every emitted sample with its record time, plus where profile
// resets fell in the emission order. It fully determines the input to
// any detect stage, which is what lets the evaluation grid transform
// each (transformation, vehicle) stream exactly once and fan every
// technique out over the cache.
type TransformedTrace struct {
	Times   []time.Time
	Samples [][]float64
	// ResetIdx[i] is the number of samples emitted before the i-th
	// reset: a reset with ResetIdx[i] == p happened between Samples[p-1]
	// and Samples[p]. Entries are non-decreasing and may repeat
	// (consecutive maintenance events with no samples between them).
	ResetIdx   []int
	ResetTimes []time.Time
}

// TraceCollector runs just the transform stage of one vehicle's stream
// and records the result in a TransformedTrace. It implements the fleet
// engine's Handler interface, so traces for a whole fleet are collected
// with one sharded replay.
type TraceCollector struct {
	vehicleID string
	stage     *TransformStage
	out       *TransformedTrace
}

// NewTraceCollector builds a collector writing into out.
func NewTraceCollector(vehicleID string, cfg TransformConfig, out *TransformedTrace) (*TraceCollector, error) {
	if out == nil {
		return nil, errors.New("core: TraceCollector requires an output trace")
	}
	s, err := NewTransformStage(cfg)
	if err != nil {
		return nil, err
	}
	s.onReset = func(t time.Time) { // recorded at its place in the emission order
		out.ResetIdx = append(out.ResetIdx, len(out.Samples))
		out.ResetTimes = append(out.ResetTimes, t)
	}
	return &TraceCollector{vehicleID: vehicleID, stage: s, out: out}, nil
}

// VehicleID returns the vehicle this collector records.
func (c *TraceCollector) VehicleID() string { return c.vehicleID }

// HandleRecord feeds one raw record; emitted samples are appended to the
// trace. It never raises alarms.
func (c *TraceCollector) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	if r.VehicleID != c.vehicleID || !c.stage.Feed(r) {
		return nil, nil
	}
	c.out.Times = append(c.out.Times, r.Time)
	c.out.Samples = append(c.out.Samples, c.stage.Emit())
	return nil, nil
}

// HandleEvent hands a maintenance event to the transform stage, exactly
// as the full pipeline does.
func (c *TraceCollector) HandleEvent(ev obd.Event) {
	if ev.VehicleID == c.vehicleID {
		c.stage.Event(ev)
	}
}

// ScoredSamples reports the number of transformed samples emitted so
// far (the engine aggregates it into its throughput counters).
func (c *TraceCollector) ScoredSamples() uint64 { return uint64(len(c.out.Samples)) }

// DetectConfig assembles a DetectStage. Detector and Thresholder are
// required; everything else defaults as in Config.
type DetectConfig struct {
	Detector    detector.Detector
	Thresholder thresholds.Thresholder

	// ProfileLength is the number of transformed samples in Ref
	// (default 60).
	ProfileLength int
	// CalibrationFraction is the tail fraction of Ref held out from Fit
	// and used to calibrate the threshold (default 0.25).
	CalibrationFraction float64
	// DensityM / DensityK gate alarms on persistence (default 1/1).
	DensityM int
	DensityK int
	// Trace, when non-nil, records every scored sample.
	Trace *Trace
	// Observer, when non-nil, records sampled score/threshold latency,
	// profile lifecycle counters, the technique's score distribution
	// and — when the observer carries a journal — one alarm-lifecycle
	// entry per alarm. Nil means no instrumentation and no overhead.
	Observer *obs.Observer
	// TransformName names the upstream transformation ("correlation",
	// ...): it labels this stage's journal entries and sets the
	// thresholder's absolute std floor (transform.AbsFloor). Pipeline
	// fills it from its transformer; standalone DetectOnTrace callers,
	// whose thresholds are replayed offline, may leave it empty.
	TransformName string
}

func (c *DetectConfig) validate() error {
	if c.Detector == nil || c.Thresholder == nil {
		return errors.New("core: DetectConfig requires Detector and Thresholder")
	}
	if c.ProfileLength <= 0 {
		c.ProfileLength = 60
	}
	if c.CalibrationFraction <= 0 || c.CalibrationFraction >= 1 {
		c.CalibrationFraction = 0.25
	}
	if c.DensityM <= 0 {
		c.DensityM = 1
	}
	if c.DensityK < c.DensityM {
		c.DensityK = c.DensityM
	}
	return nil
}

// DetectStage is the back half of the pipeline: it fills the reference
// profile from transformed samples, fits the detector and thresholder,
// scores subsequent samples and applies density persistence. Not safe
// for concurrent use.
type DetectStage struct {
	vehicleID string
	cfg       DetectConfig
	dim       int // a restored Ref's row width: the pipeline's transformer's, else the first row's

	ref    [][]float64
	state  State
	scored uint64

	// Deferred fits (the fleet engine's asynchronous refit seam): with
	// deferFits set, a profile fill does not fit inline — it marks the
	// fit pending, and the owner collects it with TakePendingFit to run
	// on a worker. A Pipeline queues what its transform stage emits from
	// the fill until the fit lands.
	deferFits  bool
	fitPending bool

	gate thresholds.Gate // density persistence over the vehicle's scored samples

	// calib summarises the last fit's calibration scores. It feeds
	// Trace.SegCalib and rides along in snapshots so a restored stage
	// can seed a fresh trace's segment table.
	calib Calib

	// scoreBuf holds the detector's scores for up to runCap samples;
	// oneT and oneX are ScoreSample's run of one.
	scoreBuf []float64
	oneT     [1]time.Time
	oneX     [1][]float64

	// Observability (not part of snapshots: journal context restarts
	// fresh after a restore, alarms and scores do not change).
	o           *obs.Observer
	obsTick     uint32
	obsMask     uint32
	scoreDist   *obs.Histogram
	technique   string
	cycleScored uint64    // samples scored under the current fit
	lastReset   time.Time // last maintenance-triggered reset

	// Provenance of the records currently being scored (also not part of
	// snapshots), set by the owning Pipeline. Touched only on the alarm
	// path — never by scoring itself — so it cannot perturb scores.
	prov provenance
}

// provenance is the ingest-batch context of a record (nil when it came
// untraced) and the shard's clock read when the record left its queue.
type provenance struct {
	bc      *obs.BatchCtx
	dequeue time.Time
}

// NewDetectStage builds a detect stage for one vehicle.
func NewDetectStage(vehicleID string, cfg DetectConfig) (*DetectStage, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &DetectStage{
		vehicleID: vehicleID,
		cfg:       cfg,
		state:     StateCollecting,
		gate:      thresholds.NewGate(cfg.DensityM, cfg.DensityK),
		o:         cfg.Observer,
		obsMask:   cfg.Observer.SampleMask(),
	}
	if cfg.Observer != nil {
		d.technique = cfg.Detector.Name()
		d.scoreDist = cfg.Observer.ScoreDist(d.technique)
	}
	return d, nil
}

// State returns the stage's current phase.
func (d *DetectStage) State() State { return d.state }

// RefLen returns how many samples the reference profile currently holds.
func (d *DetectStage) RefLen() int { return len(d.ref) }

// ScoredSamples returns how many samples the stage has scored since
// creation (across profile resets).
func (d *DetectStage) ScoredSamples() uint64 { return d.scored }

// NeedRef reports whether the reference profile is still filling; while
// it is, samples go to AddRef rather than being scored.
func (d *DetectStage) NeedRef() bool { return len(d.ref) < d.cfg.ProfileLength }

// AddRef appends a transformed sample to the reference profile, fitting
// the detector and calibrating the thresholder when the profile fills.
// The sample is retained; it must not be a reused scratch buffer.
func (d *DetectStage) AddRef(x []float64) error {
	d.ref = append(d.ref, x)
	if len(d.ref) == d.cfg.ProfileLength {
		if d.deferFits {
			d.fitPending = true
			return nil
		}
		return d.fit()
	}
	return nil
}

// SetDeferFits switches the stage between inline fits (the default) and
// the deferred mode the fleet engine uses for asynchronous refits. Must
// not be toggled while a collected fit is in flight.
func (d *DetectStage) SetDeferFits(on bool) { d.deferFits = on }

// TakePendingFit returns the deferred fit raised by the last AddRef, or
// nil when none is pending. The returned closure runs the fit (typically
// on a fit-pool worker); it is not safe to feed the stage concurrently
// with the closure, and the closure must be called exactly once.
func (d *DetectStage) TakePendingFit() func() error {
	if !d.fitPending {
		return nil
	}
	d.fitPending = false
	return d.fit
}

// Reset discards the reference profile and returns the stage to the
// collecting state, recording the reset time in the trace. The density
// gate carries on across the reset.
func (d *DetectStage) Reset(t time.Time) {
	d.ref = d.ref[:0]
	d.fitPending = false
	d.state = StateCollecting
	if d.cfg.Trace != nil {
		d.cfg.Trace.Resets = append(d.cfg.Trace.Resets, t)
	}
	d.o.ProfileReset()
	d.cycleScored = 0
	d.lastReset = t
}

// fit trains the detector and calibrates the thresholder: fitReference,
// then fitted.
func (d *DetectStage) fit() error {
	start := time.Now()
	calib, err := fitReference(d.vehicleID, d.cfg.Detector, d.ref, d.cfg.CalibrationFraction)
	if err != nil {
		return err
	}
	return d.fitted(calib, time.Since(start))
}

// fitReference fits det on the reference profile ref and returns the
// calibration scores. A detector that self-calibrates
// (detector.SelfCalibrator) is fitted on the full profile and calibrated
// from its leave-one-out scores; any other is fitted on the head of ref
// and calibrated on its scores over the held-out tail, calibFraction of
// ref. It touches nothing but det, so fits of different detectors run
// concurrently.
func fitReference(vehicleID string, det detector.Detector, ref [][]float64, calibFraction float64) ([][]float64, error) {
	if sc, ok := det.(detector.SelfCalibrator); ok {
		if err := det.Fit(ref); err != nil {
			return nil, fmt.Errorf("core: fit detector for %s: %w", vehicleID, err)
		}
		return sc.LOOScores(), nil
	}
	n := len(ref)
	calibN := int(float64(n) * calibFraction)
	if calibN < 1 {
		calibN = 1
	}
	fitN := n - calibN
	if fitN < 1 {
		fitN = 1
		calibN = n - 1
	}
	if err := det.Fit(ref[:fitN]); err != nil {
		return nil, fmt.Errorf("core: fit detector for %s: %w", vehicleID, err)
	}
	// The tail is consecutive samples, so it scores as runs.
	ch := det.Channels()
	scores := make([]float64, calibN*ch)
	tail := ref[fitN:]
	for i := 0; i < calibN; i += runCap {
		end := min(i+runCap, calibN)
		if err := detector.ScoreRunInto(det, tail[i:end], scores[i*ch:end*ch]); err != nil {
			return nil, fmt.Errorf("core: calibrate %s: %w", vehicleID, err)
		}
	}
	calib := make([][]float64, calibN)
	for i := range calib {
		calib[i] = scores[i*ch : (i+1)*ch : (i+1)*ch]
	}
	return calib, nil
}

// fitted calibrates the thresholder on the calibration scores of the
// fit that just trained the stage's detector, observes the fit's
// duration, took, and starts the profile cycle's scoring.
func (d *DetectStage) fitted(calib [][]float64, took time.Duration) error {
	if err := d.cfg.Thresholder.Calibrate(calib, transform.AbsFloor(d.cfg.TransformName)); err != nil {
		return fmt.Errorf("core: fit thresholds for %s: %w", d.vehicleID, err)
	}
	d.calib = calibStats(calib)
	if d.cfg.Trace != nil {
		d.cfg.Trace.SegCalib = append(d.cfg.Trace.SegCalib, d.calib)
	}
	d.state = StateDetecting
	d.cycleScored = 0
	if d.o != nil {
		d.o.ObserveFit(took)
		d.o.ProfileRefill()
	}
	return nil
}

// runCap is the most samples DetectStage.scoreRun hands the detector's
// run scorer at once, so a pipeline draining thousands of samples after
// a fit scores them in runs of at most this many. Measured on
// score_heavy (raw × TranAD, 2 CPUs): runs capped at 128 won 10 of 10
// alternating pairs (+12 %) against one-sample scoring; uncapped runs
// (≈ 5 k samples per landing) lost 6 of 6 (−0.6 % to −5.5 %), because
// TranAD's per-window blocks (l1, keys, values: 8 · B · DModel floats
// each, ≈ 3.8 MB at that length) no longer fit in L2.
const runCap = 128

// tick advances the observer's sampling counter by one scored sample
// and reports whether that sample is one the observer times.
func (d *DetectStage) tick() bool {
	if d.o == nil {
		return false
	}
	d.obsTick++
	return d.obsTick&d.obsMask == 0
}

// ScoreSample runs the detector on a transformed sample and converts
// threshold violations into alarms: scoreRun's run of one. A healthy
// steady state — no violations, no trace — performs no heap allocation
// at all.
func (d *DetectStage) ScoreSample(t time.Time, x []float64) ([]detector.Alarm, error) {
	d.oneT[0], d.oneX[0] = t, x
	alarms, err := d.scoreRun(d.oneT[:], d.oneX[:], nil)
	d.oneX[0] = nil
	return alarms, err
}

// scoreRun scores consecutive transformed samples xs, recorded at times,
// and appends the alarms they raise to alarms. It hands the detector up
// to runCap samples at a time (detector.ScoreRunInto: the detector's
// RunScorer when it has one, else one ScoreInto per sample), and every
// sample carries the stage's current provenance. The result is the same
// whatever the runs' lengths: the same scores, alarms, trace rows and
// density state. Observer timing is sampled per sample but measured per
// run: the clock is read for a run only when the run holds a sample the
// observer times, and that sample records the run's mean score time.
func (d *DetectStage) scoreRun(times []time.Time, xs [][]float64, alarms []detector.Alarm) ([]detector.Alarm, error) {
	ch := d.cfg.Detector.Channels()
	for len(xs) > 0 {
		n := min(len(xs), runCap)
		if cap(d.scoreBuf) < n*ch {
			d.scoreBuf = make([]float64, n*ch)
		}
		scores := d.scoreBuf[:n*ch]
		// The next sampled tick is obsTick + (obsMask - obsTick&obsMask) + 1.
		timed := d.o != nil && d.obsMask-d.obsTick&d.obsMask < uint32(n)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := detector.ScoreRunInto(d.cfg.Detector, xs[:n], scores); err != nil {
			return alarms, fmt.Errorf("core: score %s: %w", d.vehicleID, err)
		}
		var per time.Duration
		if timed {
			per = time.Since(t0) / time.Duration(n)
		}
		for i := 0; i < n; i++ {
			alarms = d.settle(times[i], scores[i*ch:(i+1)*ch], d.tick(), per, alarms)
		}
		times, xs = times[n:], xs[n:]
	}
	return alarms, nil
}

// settle is everything after the detector for one scored sample: the
// score counters, threshold violations, density persistence, alarms
// (appended to alarms) with their journal entries, and the trace row.
// timed marks a sample the observer samples, and took is its score time.
func (d *DetectStage) settle(t time.Time, scores []float64, timed bool, took time.Duration, alarms []detector.Alarm) []detector.Alarm {
	var t1 time.Time
	if timed {
		d.o.ObserveScore(took)
		t1 = time.Now()
	}
	d.scored++
	d.cycleScored++
	if timed && d.scoreDist != nil && len(scores) > 0 {
		max := scores[0]
		for _, s := range scores[1:] {
			if s > max {
				max = s
			}
		}
		d.scoreDist.Observe(max)
	}
	viol := d.cfg.Thresholder.Violations(scores)
	// Density persistence: suppress the alarm unless at least M of the
	// last K scored samples violated.
	if !d.gate.Admit(len(viol) > 0) {
		viol = nil
	}
	if timed {
		d.o.ObserveThreshold(time.Since(t1))
	}
	// Channel names and threshold values are read only when an alarm or
	// a trace needs them: a detector or thresholder may build them fresh
	// on every call.
	first := len(alarms)
	if len(viol) > 0 {
		names := d.cfg.Detector.ChannelNames()
		thVals := d.cfg.Thresholder.Values()
		for _, c := range viol {
			a := detector.Alarm{
				VehicleID: d.vehicleID,
				Time:      t,
				Channel:   c,
				Score:     scores[c],
			}
			if c < len(names) {
				a.Feature = names[c]
			}
			if c < len(thVals) {
				a.Threshold = thVals[c]
			}
			alarms = append(alarms, a)
		}
	}
	if d.o != nil && len(alarms) > first {
		d.journal(t, alarms[first:])
	}
	if d.cfg.Trace != nil {
		tr := d.cfg.Trace
		tr.Times = append(tr.Times, t)
		sc := make([]float64, len(scores))
		copy(sc, scores)
		tr.Scores = append(tr.Scores, sc)
		tr.Segments = append(tr.Segments, len(tr.SegCalib)-1)
	}
	return alarms
}

// journal counts one sample's alarms and records each in the observer's
// alarm-lifecycle journal, with the stage's provenance: the batch the
// sample's record arrived in, how long it waited in its shard queue
// (enqueue to dequeue), and its end-to-end latency from wire arrival to
// now. A sample scored after a fit landed shows the time it spent queued
// behind the fit as the difference of the two.
func (d *DetectStage) journal(t time.Time, alarms []detector.Alarm) {
	d.o.Alarms(len(alarms))
	var sinceReset float64
	if !d.lastReset.IsZero() {
		sinceReset = t.Sub(d.lastReset).Seconds()
	}
	for _, a := range alarms {
		e := obs.AlarmEvent{
			Time:            a.Time,
			VehicleID:       a.VehicleID,
			Technique:       d.technique,
			Transform:       d.cfg.TransformName,
			Feature:         a.Feature,
			Channel:         a.Channel,
			Score:           a.Score,
			Threshold:       a.Threshold,
			RefLen:          len(d.ref),
			RefCap:          d.cfg.ProfileLength,
			RefAge:          d.cycleScored,
			SinceLastEventS: sinceReset,
		}
		if bc := d.prov.bc; bc != nil {
			// The alarm path already allocates, so the clock read
			// and histogram observations here leave the scoring
			// steady state untouched.
			e.BatchID = bc.BatchID
			e.TraceID = bc.TraceID
			e.ArrivalTime = bc.Arrival
			// The engine stamps Enqueue before the shard can dequeue;
			// the guard only defends against a hand-built BatchCtx
			// with a zero Enqueue.
			if w := d.prov.dequeue.Sub(bc.Enqueue); w > 0 && !bc.Enqueue.IsZero() {
				e.QueueWaitS = w.Seconds()
			}
			lat := time.Since(bc.Arrival)
			e.E2ELatencyS = lat.Seconds()
			d.o.ObserveAlarmLatency(lat)
		}
		d.o.RecordAlarm(e)
	}
}

// DetectOnTrace replays a cached TransformedTrace through a fresh detect
// stage, producing exactly the per-sample behaviour (reference fills,
// fits, scores, resets, trace recording) that a full Pipeline fed the
// original raw stream would produce. It fits inline: the grid already
// runs one replay per worker. Alarms are discarded — callers that want
// alarms replay thresholds offline from cfg.Trace.
func DetectOnTrace(vehicleID string, tt *TransformedTrace, cfg DetectConfig) error {
	ds, err := NewDetectStage(vehicleID, cfg)
	if err != nil {
		return err
	}
	_, err = ds.walk(tt, 1, false)
	return err
}

// walk replays tt through the stage, a Ref segment at a time, and
// returns the alarms it raises when keep is set. Samples score strictly
// in order, each under its own segment's fit, and the density gate
// carries across resets. The fits run ahead on fitpool when fitAhead
// starts them, else inline, in order.
func (d *DetectStage) walk(tt *TransformedTrace, workers int, keep bool) ([]detector.Alarm, error) {
	ahead := d.fitAhead(tt, workers)
	defer ahead.stop()
	var alarms []detector.Alarm
	ri, seg := 0, 0
	for i := 0; i < len(tt.Samples); {
		for ri < len(tt.ResetIdx) && tt.ResetIdx[ri] <= i {
			d.Reset(tt.ResetTimes[ri])
			ri++
		}
		end := len(tt.Samples)
		if ri < len(tt.ResetIdx) {
			end = tt.ResetIdx[ri]
		}
		if d.NeedRef() {
			n := min(end-i, d.cfg.ProfileLength-len(d.ref))
			d.ref = append(d.ref, tt.Samples[i:i+n]...)
			if i += n; d.NeedRef() {
				continue
			}
			if err := ahead.take(d, seg); err != nil {
				return nil, err
			}
			seg++
			continue
		}
		// Every sample up to the next reset scores: one run.
		got, err := d.scoreRun(tt.Times[i:end], tt.Samples[i:end], alarms)
		if err != nil {
			return nil, err
		}
		if alarms = got; !keep {
			alarms = got[:0]
		}
		i = end
	}
	// Resets recorded after the last sample still mark the trace.
	for ; ri < len(tt.ResetIdx); ri++ {
		d.Reset(tt.ResetTimes[ri])
	}
	return alarms, nil
}

// aheadFits are a walk's fits, run ahead of it on fitpool: fit j trains
// its own detector on the j-th filled Ref segment's profile, fills its
// slot and closes its done.
type aheadFits struct {
	fits []fitOut
	quit atomic.Bool   // set by stop: fits not yet started skip
	ran  chan struct{} // closed once every fit has run or skipped
}

// fitOut is one fit's detector, calibration scores, duration and error.
type fitOut struct {
	det   detector.Detector
	calib [][]float64
	took  time.Duration
	err   error
	done  chan struct{}
}

// fitAhead starts the fits of tt's filled Ref segments, one detector
// each: the stage's own for the first, a replica for each later one. A
// goroutine holding a fitpool token runs them through fitpool.Run on up
// to workers goroutines. It returns nil, and the walk fits inline, when
// the detector is no detector.Replicator, workers < 2, fewer than two
// segments fill or no token is free (a walk nested in a pool worker).
func (d *DetectStage) fitAhead(tt *TransformedTrace, workers int) *aheadFits {
	rep, ok := d.cfg.Detector.(detector.Replicator)
	if !ok || workers < 2 {
		return nil
	}
	var refs [][][]float64
	p, start := d.cfg.ProfileLength, 0
	for k := 0; k <= len(tt.ResetIdx); k++ {
		end := len(tt.Samples)
		if k < len(tt.ResetIdx) {
			end = tt.ResetIdx[k]
		}
		if end-start >= p {
			refs = append(refs, tt.Samples[start:start+p:start+p])
		}
		start = end
	}
	if len(refs) < 2 || !fitpool.TryAcquire() {
		return nil
	}
	a := &aheadFits{fits: make([]fitOut, len(refs)), ran: make(chan struct{})}
	for j := range a.fits {
		a.fits[j] = fitOut{det: d.cfg.Detector, done: make(chan struct{})}
		if j > 0 {
			a.fits[j].det = rep.Replicate()
		}
	}
	vehicleID, calibFraction := d.vehicleID, d.cfg.CalibrationFraction
	go func() {
		defer close(a.ran)
		defer fitpool.Release()
		fitpool.Run(len(refs), workers, func(j int) {
			f := &a.fits[j]
			defer close(f.done)
			if !a.quit.Load() {
				start := time.Now()
				f.calib, f.err = fitReference(vehicleID, f.det, refs[j], calibFraction)
				f.took = time.Since(start)
			}
		})
	}()
	return a
}

// take waits for fit j, hands its detector from the slot to the stage
// and starts the segment's scoring; with no fits ahead it fits the
// stage inline.
func (a *aheadFits) take(d *DetectStage, j int) error {
	if a == nil {
		return d.fit()
	}
	f := &a.fits[j]
	<-f.done
	if f.err != nil {
		return f.err
	}
	d.cfg.Detector, f.det = f.det, nil
	return d.fitted(f.calib, f.took)
}

// stop makes the fits not yet started skip and waits for the rest.
func (a *aheadFits) stop() {
	if a != nil {
		a.quit.Store(true)
		<-a.ran
	}
}
