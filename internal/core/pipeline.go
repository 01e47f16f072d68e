// Package core implements the paper's framework (Section 3.1 and
// Algorithm 1): a per-vehicle streaming pipeline that (1) transforms raw
// PID records, (2) dynamically maintains a reference profile Ref of
// assumed-healthy behaviour that is rebuilt after every maintenance
// event, and (3) scores new transformed samples with an unsupervised
// detector, raising alarms on threshold violations.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// ResetPolicy selects which maintenance events rebuild the reference
// profile (the design choice the paper ablates in Table 3).
type ResetPolicy int

const (
	// ResetOnAllEvents rebuilds Ref after every service or repair — the
	// paper's default, which exploits all partial information available.
	ResetOnAllEvents ResetPolicy = iota
	// ResetOnRepairsOnly ignores service events; Ref is rebuilt only
	// after repairs, so vehicles without repairs keep their initial
	// profile forever (the degraded Table 3 variant).
	ResetOnRepairsOnly
)

// String implements fmt.Stringer.
func (r ResetPolicy) String() string {
	switch r {
	case ResetOnAllEvents:
		return "reset-on-all-events"
	case ResetOnRepairsOnly:
		return "reset-on-repairs-only"
	default:
		return fmt.Sprintf("ResetPolicy(%d)", int(r))
	}
}

// State describes where a pipeline is in its fill→fit→detect cycle.
type State int

const (
	// StateCollecting: the reference profile is still filling.
	StateCollecting State = iota
	// StateDetecting: the detector is fitted and scoring new samples.
	StateDetecting
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCollecting:
		return "collecting"
	case StateDetecting:
		return "detecting"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config assembles a pipeline. Transformer, Detector and Thresholder are
// required; everything else has defaults.
type Config struct {
	Transformer transform.Transformer
	Detector    detector.Detector
	Thresholder thresholds.Thresholder

	// ProfileLength is the number of transformed samples in Ref
	// (default 60).
	ProfileLength int
	// CalibrationFraction is the tail fraction of Ref held out from
	// Fit and used to calibrate the threshold — the paper's "small
	// portion of healthy data" (default 0.25).
	CalibrationFraction float64
	// ResetPolicy selects which events rebuild Ref.
	ResetPolicy ResetPolicy
	// Filter drops raw records before transformation; nil means the
	// paper's default of removing stationary-state and sensor-fault
	// records.
	Filter func(*timeseries.Record) bool
	// FilterState exposes the Filter's mutable state to the pipeline's
	// snapshot seam when the filter is stateful (timeseries.WarmupFilter:
	// pass wf.Keep as Filter and wf as FilterState). Leave nil for
	// stateless filters; a pipeline with a stateful filter but no
	// FilterState cannot be snapshotted consistently.
	FilterState checkpoint.Snapshotter
	// DensityM and DensityK gate alarms on persistence: an alarm is
	// emitted only when at least M of the vehicle's last K scored
	// samples (including the current one) violate their thresholds.
	// Degradation is sustained; isolated excursions are noise. Defaults
	// to 1/1 (every violation alarms).
	DensityM int
	DensityK int
	// Trace, when non-nil, records every scored sample for
	// visualisation (Figure 8).
	Trace *Trace
	// Observer, when non-nil, instruments both stages: sampled
	// per-stage latency histograms, profile lifecycle counters, the
	// technique's score distribution and alarm-lifecycle journal
	// entries. A nil Observer costs nothing — the zero-allocation
	// steady state is preserved either way, and alarms are bit-identical
	// with or without instrumentation.
	Observer *obs.Observer
}

func (c *Config) validate() error {
	if c.Transformer == nil || c.Detector == nil || c.Thresholder == nil {
		return errors.New("core: Config requires Transformer, Detector and Thresholder")
	}
	return nil
}

// Calib holds the per-channel mean and standard deviation of the
// detector's scores on one reference profile's calibration tail. It lets
// a threshold factor f be replayed offline (threshold_c = mean_c +
// f·std_c) without re-running the detector — the evaluation grid sweeps
// threshold parameters this way.
type Calib struct {
	Means, Stds []float64
}

// Trace captures the per-sample scoring history of one pipeline for
// plotting (Figure 8) and for offline threshold sweeps.
type Trace struct {
	Times      []time.Time
	Scores     [][]float64
	Thresholds [][]float64
	Alarmed    []bool
	Resets     []time.Time // when Ref was rebuilt

	// Segments[i] indexes SegCalib for the profile cycle sample i was
	// scored under.
	Segments []int
	SegCalib []Calib
}

// AlarmMark is an alarm classified against the prediction horizon, used
// by visualisations (the green/red rectangles of the paper's Figure 8).
type AlarmMark struct {
	Time         time.Time
	Feature      string
	Score        float64
	TruePositive bool
}

// Pipeline is the per-vehicle realisation of Algorithm 1: a
// TransformStage feeding a DetectStage through a queue. Every sample the
// transform stage emits and every reset it takes is queued, and drain is
// the one place that hands them to the detect stage — at once, unless a
// fit is pending or in flight. Not safe for concurrent use, except that
// a fit handed out by TakePendingFit runs beside the pipeline's other
// methods (see TakePendingFit).
type Pipeline struct {
	vehicleID string
	ts        *TransformStage
	ds        *DetectStage

	// inFlight is set from TakePendingFit handing out a fit to LandFit;
	// meanwhile the fit owns ds. prov is the provenance most recently
	// set. landed is drain's alarm buffer, reused by the next drain.
	inFlight bool
	q        sampleQueue
	prov     provenance
	landed   []detector.Alarm
}

// NewPipeline builds a pipeline for one vehicle.
func NewPipeline(vehicleID string, cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ts, err := NewTransformStage(TransformConfig{
		Transformer: cfg.Transformer,
		Filter:      cfg.Filter,
		FilterState: cfg.FilterState,
		ResetPolicy: cfg.ResetPolicy,
		Observer:    cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	ds, err := NewDetectStage(vehicleID, DetectConfig{
		Detector:            cfg.Detector,
		Thresholder:         cfg.Thresholder,
		ProfileLength:       cfg.ProfileLength,
		CalibrationFraction: cfg.CalibrationFraction,
		DensityM:            cfg.DensityM,
		DensityK:            cfg.DensityK,
		Trace:               cfg.Trace,
		Observer:            cfg.Observer,
		TransformName:       cfg.Transformer.Name(),
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{vehicleID: vehicleID, ts: ts, ds: ds, q: sampleQueue{dim: cfg.Transformer.Dim()}}, nil
}

// VehicleID returns the vehicle this pipeline monitors.
func (p *Pipeline) VehicleID() string { return p.vehicleID }

// State returns the pipeline's current phase.
func (p *Pipeline) State() State { return p.ds.State() }

// RefLen returns how many transformed samples the profile currently
// holds.
func (p *Pipeline) RefLen() int { return p.ds.RefLen() }

// ScoredSamples returns how many transformed samples the pipeline has
// scored since creation (across profile resets). The fleet engine
// aggregates this into its per-shard throughput counters.
func (p *Pipeline) ScoredSamples() uint64 { return p.ds.ScoredSamples() }

// SetDeferFits switches the pipeline's detect stage between inline and
// deferred fits (see DetectStage.SetDeferFits).
func (p *Pipeline) SetDeferFits(on bool) { p.ds.SetDeferFits(on) }

// TakePendingFit hands out the detect stage's deferred fit, if any (see
// DetectStage.TakePendingFit), and nil while one is in flight. The fit
// runs on any goroutine; until the owner calls LandFit, HandleRecord,
// HandleEvent and SetProvenance only run the transform stage and fill
// the queue, touching nothing the fit reads.
func (p *Pipeline) TakePendingFit() func() error {
	if p.inFlight {
		return nil
	}
	fit := p.ds.TakePendingFit()
	p.inFlight = fit != nil
	return fit
}

// LandFit ends the fit TakePendingFit handed out, once it has returned
// without error, and drains the queue (see drain). It returns the alarms
// the drained samples raised, each journaled with its own record's
// provenance, in a slice the pipeline's next drain reuses.
func (p *Pipeline) LandFit() ([]detector.Alarm, error) {
	p.inFlight = false
	return p.land()
}

// waiting reports whether the queue must hold what arrives: a fit is
// pending (raised but not yet taken) or in flight.
func (p *Pipeline) waiting() bool { return p.inFlight || p.ds.fitPending }

// land drains the queue into p.landed and compacts it.
func (p *Pipeline) land() ([]detector.Alarm, error) {
	p.landed = p.landed[:0]
	err := p.drain()
	p.q.compact()
	return p.landed, err
}

// drain hands the queue to the detect stage in arrival order: a reset
// marker resets it, a sample arriving while the profile is filling is
// copied into it, and every other sample is scored in place, consecutive
// ones together (scoreRun, runs of at most runCap under one provenance).
// A sample that fills the profile under deferred fits ends the drain and
// leaves the rest queued, ahead of later arrivals, for the next fit.
func (p *Pipeline) drain() error {
	q := &p.q
	for q.n > 0 {
		t, x := q.front()
		switch {
		case x == nil:
			p.ds.Reset(t)
			q.pop(1)
		case p.ds.NeedRef():
			ref := slices.Clone(x)
			q.pop(1)
			if err := p.ds.AddRef(ref); err != nil || p.ds.fitPending {
				return err
			}
		default:
			times, xs, prov := q.run()
			p.ds.prov = prov
			var err error
			p.landed, err = p.ds.scoreRun(times, xs, p.landed)
			if err != nil {
				return err
			}
			q.pop(len(xs))
		}
	}
	return nil
}

// SetProvenance attaches (or clears, with nil) the ingest-batch
// context of the records about to be handled — the pipeline's half of
// the fleet engine's ProvenanceSink seam. Their samples queue under it,
// and the detect stage journals their alarms with it.
func (p *Pipeline) SetProvenance(bc *obs.BatchCtx, dequeue time.Time) {
	p.prov = provenance{bc, dequeue}
}

// HandleEvent feeds a maintenance event to the pipeline. An event that
// triggers a reset (per the ResetPolicy) resets the transform stage and
// queues a reset marker, which discards the reference profile and
// returns the detect stage to the collecting state when it drains.
func (p *Pipeline) HandleEvent(ev obd.Event) {
	if ev.VehicleID != p.vehicleID || !p.ts.ShouldReset(ev) {
		return
	}
	p.q.pushReset(ev.Time, p.prov)
	p.ts.Reset()
	if !p.waiting() {
		// The queue holds just the marker, which raises neither an
		// alarm nor an error.
		p.land()
	}
}

// HandleRecord feeds one raw PID record. It returns any alarms raised by
// the sample, in a slice the caller owns (nil most of the time, and
// always while a fit is pending or in flight: the sample is queued for
// LandFit).
func (p *Pipeline) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	if r.VehicleID != p.vehicleID || !p.ts.Feed(r) {
		return nil, nil
	}
	p.ts.EmitInto(p.q.pushSample(r.Time, p.prov))
	if p.waiting() {
		return nil, nil
	}
	alarms, err := p.land()
	if len(alarms) == 0 {
		return nil, err
	}
	return slices.Clone(alarms), err
}

// calibStats summarises calibration scores per channel.
func calibStats(calib [][]float64) Calib {
	if len(calib) == 0 {
		return Calib{}
	}
	ch := len(calib[0])
	c := Calib{Means: make([]float64, ch), Stds: make([]float64, ch)}
	col := make([]float64, len(calib))
	for j := 0; j < ch; j++ {
		for i, row := range calib {
			col[i] = row[j]
		}
		c.Means[j] = mat.Mean(col)
		c.Stds[j] = mat.Std(col)
	}
	return c
}
