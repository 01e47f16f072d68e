package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
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
// filters raw records, feeds the transformer and answers which events
// must reset buffered state. Not safe for concurrent use.
type TransformStage struct {
	cfg    TransformConfig
	recBuf timeseries.Record // staging for Filter's pointer argument

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
	return &TransformStage{cfg: cfg, o: cfg.Observer, obsMask: cfg.Observer.SampleMask()}, nil
}

// Feed pushes one raw record through the filter into the transformer and
// reports whether a transformed sample is ready to emit. With an
// observer, every filter drop is counted and a deterministic 1-in-N
// sample of records is timed through the filter + collect path.
// Sampling only skips clock reads — at nanosecond per-record costs the
// clock IS the overhead — and keeps the instrumented hot path
// allocation-free.
func (s *TransformStage) Feed(r timeseries.Record) bool {
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

// ShouldReset reports whether ev resets buffered state under the stage's
// ResetPolicy.
func (s *TransformStage) ShouldReset(ev obd.Event) bool {
	switch s.cfg.ResetPolicy {
	case ResetOnAllEvents:
		return ev.IsReset()
	case ResetOnRepairsOnly:
		return ev.Type == obd.EventRepair
	default:
		return false
	}
}

// Reset clears the transformer's buffered state.
func (s *TransformStage) Reset() { s.cfg.Transformer.Reset() }

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
	return &TraceCollector{vehicleID: vehicleID, stage: s, out: out}, nil
}

// VehicleID returns the vehicle this collector records.
func (c *TraceCollector) VehicleID() string { return c.vehicleID }

// HandleRecord feeds one raw record; emitted samples are appended to the
// trace. It never raises alarms.
func (c *TraceCollector) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	if r.VehicleID != c.vehicleID {
		return nil, nil
	}
	if !c.stage.Feed(r) {
		return nil, nil
	}
	c.out.Times = append(c.out.Times, r.Time)
	c.out.Samples = append(c.out.Samples, c.stage.Emit())
	return nil, nil
}

// HandleEvent records resetting maintenance events at their position in
// the emission order and resets the transformer, exactly as the full
// pipeline would.
func (c *TraceCollector) HandleEvent(ev obd.Event) {
	if ev.VehicleID != c.vehicleID || !c.stage.ShouldReset(ev) {
		return
	}
	c.out.ResetIdx = append(c.out.ResetIdx, len(c.out.Samples))
	c.out.ResetTimes = append(c.out.ResetTimes, ev.Time)
	c.stage.Reset()
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
	// TransformName labels this stage's journal entries with the
	// upstream transformation ("correlation", ...). Pipeline fills it
	// from its transformer; standalone DetectOnTrace callers may leave
	// it empty.
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

	// density persistence ring over recent violation flags
	violRing  []bool
	violPos   int
	violCount int

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
		violRing:  make([]bool, cfg.DensityK),
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
	return d.fit0
}

// fit0 adapts fit to a plain closure (avoiding a per-fit allocation in
// TakePendingFit).
func (d *DetectStage) fit0() error { return d.fit() }

// Reset discards the reference profile and returns the stage to the
// collecting state, recording the reset time in the trace.
func (d *DetectStage) Reset(t time.Time) {
	d.ref = d.ref[:0]
	d.fitPending = false
	d.state = StateCollecting
	for i := range d.violRing {
		d.violRing[i] = false
	}
	d.violPos, d.violCount = 0, 0
	if d.cfg.Trace != nil {
		d.cfg.Trace.Resets = append(d.cfg.Trace.Resets, t)
	}
	d.o.ProfileReset()
	d.cycleScored = 0
	d.lastReset = t
}

// fit trains the detector and calibrates the thresholder. Detectors
// that self-calibrate (detector.SelfCalibrator) are fitted on the full
// reference profile and calibrated from their leave-one-out scores;
// everything else is fitted on the head of Ref and calibrated on the
// detector's scores over the held-out tail.
func (d *DetectStage) fit() error {
	var fitStart time.Time
	if d.o != nil {
		fitStart = time.Now()
	}
	var calib [][]float64
	if sc, ok := d.cfg.Detector.(detector.SelfCalibrator); ok {
		if err := d.cfg.Detector.Fit(d.ref); err != nil {
			return fmt.Errorf("core: fit detector for %s: %w", d.vehicleID, err)
		}
		calib = sc.LOOScores()
	} else {
		n := len(d.ref)
		calibN := int(float64(n) * d.cfg.CalibrationFraction)
		if calibN < 1 {
			calibN = 1
		}
		fitN := n - calibN
		if fitN < 1 {
			fitN = 1
			calibN = n - 1
		}
		if err := d.cfg.Detector.Fit(d.ref[:fitN]); err != nil {
			return fmt.Errorf("core: fit detector for %s: %w", d.vehicleID, err)
		}
		// The tail is consecutive samples, so it scores as runs.
		ch := d.cfg.Detector.Channels()
		scores := make([]float64, calibN*ch)
		tail := d.ref[fitN:]
		for i := 0; i < calibN; i += runCap {
			end := min(i+runCap, calibN)
			if err := detector.ScoreRunInto(d.cfg.Detector, tail[i:end], scores[i*ch:end*ch]); err != nil {
				return fmt.Errorf("core: calibrate %s: %w", d.vehicleID, err)
			}
		}
		calib = make([][]float64, calibN)
		for i := range calib {
			calib[i] = scores[i*ch : (i+1)*ch : (i+1)*ch]
		}
	}
	if err := d.cfg.Thresholder.Fit(calib); err != nil {
		return fmt.Errorf("core: fit thresholds for %s: %w", d.vehicleID, err)
	}
	d.calib = calibStats(calib)
	if d.cfg.Trace != nil {
		d.cfg.Trace.SegCalib = append(d.cfg.Trace.SegCalib, d.calib)
	}
	d.state = StateDetecting
	d.cycleScored = 0
	if d.o != nil {
		d.o.ObserveFit(time.Since(fitStart))
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
	if d.violRing[d.violPos] {
		d.violCount--
	}
	d.violRing[d.violPos] = len(viol) > 0
	if len(viol) > 0 {
		d.violCount++
	}
	d.violPos = (d.violPos + 1) % len(d.violRing)
	if len(viol) > 0 && d.violCount < d.cfg.DensityM {
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
		thVals := d.cfg.Thresholder.Values()
		th := make([]float64, len(thVals))
		copy(th, thVals)
		tr.Thresholds = append(tr.Thresholds, th)
		tr.Alarmed = append(tr.Alarmed, len(alarms) > first)
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
// original raw stream would produce. Alarms are discarded — callers that
// want alarms replay thresholds offline from cfg.Trace.
func DetectOnTrace(vehicleID string, tt *TransformedTrace, cfg DetectConfig) error {
	ds, err := NewDetectStage(vehicleID, cfg)
	if err != nil {
		return err
	}
	ri := 0
	var alarms []detector.Alarm
	for i := 0; i < len(tt.Samples); {
		for ri < len(tt.ResetIdx) && tt.ResetIdx[ri] <= i {
			ds.Reset(tt.ResetTimes[ri])
			ri++
		}
		if ds.NeedRef() {
			if err := ds.AddRef(tt.Samples[i]); err != nil {
				return err
			}
			i++
			continue
		}
		// Every sample up to the next reset scores: one run.
		end := len(tt.Samples)
		if ri < len(tt.ResetIdx) {
			end = tt.ResetIdx[ri]
		}
		if alarms, err = ds.scoreRun(tt.Times[i:end], tt.Samples[i:end], alarms[:0]); err != nil {
			return err
		}
		i = end
	}
	// Resets recorded after the last sample still mark the trace.
	for ; ri < len(tt.ResetIdx); ri++ {
		ds.Reset(tt.ResetTimes[ri])
	}
	return nil
}
