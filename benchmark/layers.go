package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
	"github.com/navarchos/pdm/internal/wire"
)

// layerInputs is what the in-process legs of a traced run work on: the
// workload's exact inputs and the pipeline it runs.
type layerInputs struct {
	fleet  *fleetsim.Fleet
	frames *frameSet // the whole fleet as one stream, at the workload's frame size
	// newConfig builds the workload's per-vehicle pipeline, observed or
	// not.
	newConfig func(o *pdm.Observer) func(string) (pdm.PipelineConfig, error)
	// batchCtx admits through IngestBatchCtx with one provenance context
	// per frame, as navarchos-serve does; otherwise plain IngestBatch.
	batchCtx bool
	shards   int
	// legVehicles caps how many vehicles the serial per-vehicle legs
	// cover (score_heavy's TranAD legs would otherwise take as long as
	// the workload on one core); results are per record, so a subset
	// still reads in the same units.
	legVehicles int
	// quick runs every repeated leg once (smoke scale: the numbers are
	// not read, only that the legs run).
	quick bool
}

// wireRun is one in-process pass of the wire path: every frame decoded
// and admitted, then the engine closed.
type wireRun struct {
	wall, cpu time.Duration
	stats     pdm.EngineStats
	alarms    int
	queueMax  float64 // largest sampled pdm_fleet_shard_queue_depth (observed runs only)
}

// wirePath replays the frames through Decoder.DecodeInto and
// Engine.IngestBatch[Ctx] into a fresh engine. With a tracer it records
// per frame a root span "frame" with children "wire.decode" and
// "fleet.admit", then "fleet.drain" around Close. half stops after that
// many frames and hands the still-open engine to the caller (the
// checkpoint leg); 0 means the whole stream.
func (in *layerInputs) wirePath(tr *tracer, o *pdm.Observer, half int) (wireRun, *pdm.FleetEngine, error) {
	var run wireRun
	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{
		NewConfig: in.newConfig(o), Shards: in.shards, Observer: o,
	})
	if err != nil {
		return run, nil, err
	}
	var alarms atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Alarms() {
			alarms.Add(1)
		}
	}()
	stopSampling := func() {}
	if o != nil {
		stopSampling = sampleQueueDepth(o.Registry(), &run.queueMax)
	}

	frames := in.frames.frames
	if half > 0 {
		frames = frames[:half]
	}
	var dec wire.Decoder
	var b wire.Batch
	cpu0, start := processCPU(), time.Now()
	for i, fr := range frames {
		id := uint64(i + 1)
		root := tr.begin("frame", -1, id)
		sp := tr.begin("wire.decode", root, id)
		b.Reset()
		_, err := dec.DecodeInto(fr, &b)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("fleet.admit", root, id)
			if in.batchCtx {
				err = eng.IngestBatchCtx(b.Records, b.Events, &obs.BatchCtx{BatchID: id, Arrival: time.Now()})
			} else {
				err = eng.IngestBatch(b.Records, b.Events)
			}
			tr.end(sp)
		}
		tr.end(root)
		if err != nil {
			stopSampling()
			eng.Close() //nolint:errcheck // the decode/admit error is the one to report
			<-drained
			return run, nil, fmt.Errorf("in-process wire path, frame %d: %w", i, err)
		}
	}
	if half > 0 {
		stopSampling()
		// The caller closes the engine; the drain goroutine ends with it.
		return run, eng, nil
	}
	sp := tr.begin("fleet.drain", -1, 0)
	err = eng.Close()
	<-drained
	tr.end(sp)
	run.wall, run.cpu = time.Since(start), processCPU()-cpu0
	stopSampling()
	if err != nil {
		return run, nil, fmt.Errorf("in-process wire path: %w", err)
	}
	run.stats = eng.Stats()
	run.alarms = int(alarms.Load())
	if run.stats.RecordsIn != uint64(in.frames.nRec) {
		return run, nil, fmt.Errorf("in-process wire path processed %d of %d records", run.stats.RecordsIn, in.frames.nRec)
	}
	return run, nil, nil
}

// sampleQueueDepth polls the registry's shard queue-depth gauges until
// the returned stop is called, keeping the maximum. Every 10 ms: each
// poll renders the whole exposition, and a faster one would show up in
// obs.overhead_share, which is measured on the same passes.
func sampleQueueDepth(reg *pdm.MetricsRegistry, max *float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				buf.Reset()
				if reg.WritePrometheus(&buf) == nil {
					if _, m := promSample(buf.Bytes(), "pdm_fleet_shard_queue_depth"); m > *max {
						*max = m
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// repsFor sizes a repeated leg: as many repeats as fit in ~4 s, at
// least 1 and at most 5, judged from the first pass.
func (in *layerInputs) repsFor(first time.Duration) int {
	if in.quick {
		return 1
	}
	if first <= 0 {
		return 5
	}
	n := int(4 * time.Second / first)
	if n < 1 {
		n = 1
	}
	if n > 5 {
		n = 5
	}
	return n
}

func durMedian(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// nullHandler does nothing: an engine running it measures staging,
// routing and the queues alone.
type nullHandler struct{}

func (nullHandler) HandleRecord(timeseries.Record) ([]detector.Alarm, error) { return nil, nil }
func (nullHandler) HandleEvent(obd.Event)                                    {}
func (nullHandler) ScoredSamples() uint64                                    { return 0 }

func newNullEngine(shards int) (*fleet.Engine, error) {
	return fleet.NewEngine(fleet.Config{
		NewHandler: func(string) (fleet.Handler, error) { return nullHandler{}, nil },
		Shards:     shards,
		DropAlarms: true,
	})
}

// measureLayers runs every in-process leg and fills the per-layer
// metrics that do not need the server. tr receives the spans.
func (in *layerInputs) measureLayers(m metricSet, tr *tracer, log io.Writer) error {
	nRec := float64(in.frames.nRec)
	perRec := func(d time.Duration) float64 { return float64(d) / nRec }

	// Whole path, tracing off then on: the budget's total and the
	// tracing overhead. Alternating passes share machine drift.
	first, _, err := in.wirePath(nil, nil, 0)
	if err != nil {
		return err
	}
	reps := in.repsFor(first.wall)
	var plain, plainCPU, traced []time.Duration
	var last wireRun
	for r := 0; r < reps; r++ {
		run, _, err := in.wirePath(nil, nil, 0)
		if err != nil {
			return err
		}
		plain, plainCPU = append(plain, run.wall), append(plainCPU, run.cpu)
		last = run
		// Only the final traced pass keeps its spans.
		t := newTracer(3*len(in.frames.frames) + 1)
		run, _, err = in.wirePath(t, nil, 0)
		if err != nil {
			return err
		}
		traced = append(traced, run.wall)
		if r == reps-1 {
			tr.adopt(t)
		}
	}
	wall, cpu := durMedian(plain), durMedian(plainCPU)
	m["budget.wall_ns_per_record"] = perRec(wall)
	m["budget.cpu_ns_per_record"] = perRec(cpu)
	m["trace.overhead_share"] = float64(durMedian(traced)-wall) / float64(wall)
	fmt.Fprintf(log, "in-process wire path: %d passes each way, wall %v traced %v, %d alarms\n", reps, wall, durMedian(traced), last.alarms)

	spans := tr.byName()
	m["fleet.admit_ns_per_record"] = perRec(spans["fleet.admit"].Total)
	m["fleet.drain_ms"] = ms(spans["fleet.drain"].Total)
	m["fleet.alarms_dropped"] = float64(last.stats.Drops)
	var maxShard uint64
	for _, s := range last.stats.Shards {
		if s.RecordsIn > maxShard {
			maxShard = s.RecordsIn
		}
	}
	m["fleet.shard_skew"] = float64(maxShard) * float64(len(last.stats.Shards)) / nRec

	// Same path with the Observer the server always runs with.
	var observed []time.Duration
	var queueMax float64
	for r := 0; r < reps; r++ {
		o := pdm.NewObserver(pdm.NewMetricsRegistry(), pdm.ObserverConfig{Journal: pdm.NewAlarmJournal(256)})
		run, _, err := in.wirePath(nil, o, 0)
		if err != nil {
			return err
		}
		observed = append(observed, run.wall)
		if run.queueMax > queueMax {
			queueMax = run.queueMax
		}
	}
	m["obs.overhead_share"] = float64(durMedian(observed)-wall) / float64(wall)
	if _, measured := m["fleet.queue_depth_max"]; !measured { // the serve workloads scrape the real server instead
		m["fleet.queue_depth_max"] = queueMax
	}

	if err := in.wireLegs(m); err != nil {
		return err
	}
	if err := in.engineLegs(m); err != nil {
		return err
	}
	if err := in.checkpointLeg(m); err != nil {
		return err
	}
	streams := in.legStreams()
	if len(streams) == 0 {
		return fmt.Errorf("per-vehicle legs: empty fleet")
	}
	// own is the workload's own transform, the one inside the whole
	// path; fed is how many records the per-vehicle legs covered.
	own, fed, err := in.vehicleLegs(m, tr, streams)
	if err != nil {
		return err
	}
	if err := in.detectorLegs(m, streams[0]); err != nil {
		return err
	}

	spans = tr.byName()
	sum := m["wire.decode_ns_per_record"] + m["fleet.null_ns_per_record"] +
		m["transform."+own+"_ns_per_record"] +
		(float64(spans["core.fill_fit"].Total)+float64(spans["core.score"].Total))/float64(fed)
	m["budget.sum_ns_per_record"] = sum
	m["budget.residual_share"] = (m["budget.cpu_ns_per_record"] - sum) / m["budget.cpu_ns_per_record"]
	m["trace.spans"] = float64(tr.len())
	return nil
}

// wireLegs times the decoder alone, and the two text formats on a
// 50k-record sample.
func (in *layerInputs) wireLegs(m metricSet) error {
	var dec wire.Decoder
	var b wire.Batch
	decodeAll := func() error {
		for _, fr := range in.frames.frames {
			b.Reset()
			if _, err := dec.DecodeInto(fr, &b); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	if err := decodeAll(); err != nil { // also warms the intern table
		return err
	}
	reps := in.repsFor(time.Since(start))
	var times []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := decodeAll(); err != nil {
			return err
		}
		times = append(times, time.Since(start))
	}
	runtime.ReadMemStats(&ms1)
	d := durMedian(times)
	m["wire.decode_ns_per_record"] = float64(d) / float64(in.frames.nRec)
	m["wire.decode_mb_per_s"] = float64(in.frames.bytes) / 1e6 / d.Seconds()
	m["wire.decode_allocs_per_record"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps*in.frames.nRec)
	m["wire.frames"] = float64(len(in.frames.frames))
	m["wire.bytes"] = float64(in.frames.bytes)

	sample := in.fleet.Records
	if len(sample) > 50000 {
		sample = sample[:50000]
	}
	discard := wire.SinkFunc(func(*wire.Batch) error { return nil })
	var csv bytes.Buffer
	if err := fleetsim.WriteRecordsCSV(&csv, sample); err != nil {
		return err
	}
	start = time.Now()
	if _, err := wire.DecodeCSV(bytes.NewReader(csv.Bytes()), 0, discard); err != nil {
		return fmt.Errorf("csv leg: %w", err)
	}
	m["wire.csv_ns_per_record"] = float64(time.Since(start)) / float64(len(sample))

	var nd bytes.Buffer
	for i := range sample {
		r := &sample[i]
		fmt.Fprintf(&nd, `{"vehicle":%q,"time":%q,"values":[%g,%g,%g,%g,%g,%g]}`+"\n",
			r.VehicleID, r.Time.UTC().Format(time.RFC3339Nano),
			r.Values[0], r.Values[1], r.Values[2], r.Values[3], r.Values[4], r.Values[5])
	}
	start = time.Now()
	if _, err := wire.DecodeJSON(bytes.NewReader(nd.Bytes()), 0, discard); err != nil {
		return fmt.Errorf("json leg: %w", err)
	}
	m["wire.json_ns_per_record"] = float64(time.Since(start)) / float64(len(sample))
	return nil
}

// engineLegs measures the engine with a no-op handler, through batch
// admission and through Replay. Both are CPU time: the shards run
// beside the producer, and the budget sums CPU, not wall.
func (in *layerInputs) engineLegs(m metricSet) error {
	recs, evs := in.fleet.Records, in.fleet.Events
	leg := func(feed func(*fleet.Engine) error) (float64, error) {
		var cpus []time.Duration
		for r := 0; r < in.repsFor(time.Second); r++ {
			eng, err := newNullEngine(in.shards)
			if err != nil {
				return 0, err
			}
			cpu0 := processCPU()
			if err := feed(eng); err != nil {
				return 0, err
			}
			if err := eng.Close(); err != nil {
				return 0, err
			}
			cpus = append(cpus, processCPU()-cpu0)
		}
		return float64(durMedian(cpus)) / float64(len(recs)), nil
	}
	var err error
	m["fleet.null_ns_per_record"], err = leg(func(eng *fleet.Engine) error {
		for lo := 0; lo < len(recs); lo += burstFrameItems {
			hi := lo + burstFrameItems
			if hi > len(recs) {
				hi = len(recs)
			}
			if err := eng.IngestBatch(recs[lo:hi], nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("null-engine leg: %w", err)
	}
	m["fleet.replay_ns_per_record"], err = leg(func(eng *fleet.Engine) error { return eng.Replay(recs, evs) })
	if err != nil {
		return fmt.Errorf("replay leg: %w", err)
	}
	return nil
}

// checkpointLeg snapshots a live engine at the stream's midpoint and
// restores it.
func (in *layerInputs) checkpointLeg(m metricSet) error {
	_, eng, err := in.wirePath(nil, nil, (len(in.frames.frames)+1)/2)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	start := time.Now()
	err = eng.Checkpoint(&buf)
	m["checkpoint.write_ms"] = ms(time.Since(start))
	closeErr := eng.Close()
	if err != nil {
		return fmt.Errorf("checkpoint leg: %w", err)
	}
	if closeErr != nil {
		return fmt.Errorf("checkpoint leg: %w", closeErr)
	}
	m["checkpoint.bytes"] = float64(buf.Len())
	start = time.Now()
	restored, err := pdm.NewFleetEngineFromCheckpoint(bytes.NewReader(buf.Bytes()),
		pdm.FleetEngineConfig{NewConfig: in.newConfig(nil), Shards: in.shards, DropAlarms: true})
	if err != nil {
		return fmt.Errorf("checkpoint leg: restore: %w", err)
	}
	m["checkpoint.restore_ms"] = ms(time.Since(start))
	return restored.Close()
}

// legStreams are the vehicles the serial legs run: all of them, or
// legVehicles evenly spaced ones (the fleet's first vehicles are the
// ones with recorded maintenance, so a prefix would overstate fits).
func (in *layerInputs) legStreams() []vehicleStream {
	vs := byVehicle(in.fleet.Records, in.fleet.Events)
	if in.legVehicles <= 0 || len(vs) <= in.legVehicles {
		return vs
	}
	picked := make([]vehicleStream, in.legVehicles)
	for i := range picked {
		picked[i] = vs[i*len(vs)/in.legVehicles]
	}
	return picked
}

// collect runs one vehicle's stream through the transform stage alone.
func collect(v vehicleStream, cfg core.TransformConfig) (*core.TransformedTrace, error) {
	tt := &core.TransformedTrace{}
	c, err := core.NewTraceCollector(v.id, cfg, tt)
	if err != nil {
		return nil, err
	}
	err = core.Merged(v.id, v.records, v.events,
		func(ev obd.Event) error { c.HandleEvent(ev); return nil },
		func(r timeseries.Record) error { _, err := c.HandleRecord(r); return err })
	return tt, err
}

// vehicleLegs runs each vehicle serially through the workload's own
// pipeline, split at the stage seam: a root span per vehicle with
// children transform.feed (TransformStage.Feed/Emit over the whole
// stream), then core.fill_fit (DetectStage.AddRef, fits included) and
// core.score (DetectStage.ScoreSample) per profile cycle. The other
// three transformations run as their own legs.
func (in *layerInputs) vehicleLegs(m metricSet, tr *tracer, streams []vehicleStream) (own string, fed int, err error) {
	newConfig := in.newConfig(nil)
	var kept, emitted, scored, fits int
	for vi, v := range streams {
		cfg, err := newConfig(v.id)
		if err != nil {
			return "", 0, err
		}
		own = cfg.Transformer.Name()
		// What the filter drops, counted on a second instance so the
		// timed one starts fresh (the warm-up filter is stateful).
		probe, err := newConfig(v.id)
		if err != nil {
			return "", 0, err
		}
		keep := probe.Filter
		if keep == nil {
			keep = timeseries.CleanFilter
		}
		for i := range v.records {
			fed++
			if keep(&v.records[i]) {
				kept++
			}
		}
		id := uint64(1_000_000 + vi)
		root := tr.begin("vehicle", -1, id)
		sp := tr.begin("transform.feed", root, id)
		tt, err := collect(v, core.TransformConfig{Transformer: cfg.Transformer, Filter: cfg.Filter,
			FilterState: cfg.FilterState, ResetPolicy: cfg.ResetPolicy})
		tr.end(sp)
		if err != nil {
			return "", 0, fmt.Errorf("transform leg, %s: %w", v.id, err)
		}
		emitted += len(tt.Samples)

		ds, err := core.NewDetectStage(v.id, core.DetectConfig{Detector: cfg.Detector, Thresholder: cfg.Thresholder,
			ProfileLength: cfg.ProfileLength, CalibrationFraction: cfg.CalibrationFraction,
			DensityM: cfg.DensityM, DensityK: cfg.DensityK})
		if err != nil {
			return "", 0, err
		}
		ri, n := 0, len(tt.Samples)
		for i := 0; i < n; {
			for ri < len(tt.ResetIdx) && tt.ResetIdx[ri] <= i {
				ds.Reset(tt.ResetTimes[ri])
				ri++
			}
			// One span per run of samples in the same phase: it ends at
			// the next reset or when the profile fills.
			end := n
			if ri < len(tt.ResetIdx) {
				end = tt.ResetIdx[ri]
			}
			if ds.NeedRef() {
				sp := tr.begin("core.fill_fit", root, id)
				for ; i < end && ds.NeedRef(); i++ {
					if err := ds.AddRef(tt.Samples[i]); err != nil {
						return "", 0, fmt.Errorf("detect leg, %s: %w", v.id, err)
					}
				}
				tr.end(sp)
				if !ds.NeedRef() {
					fits++
				}
				continue
			}
			sp := tr.begin("core.score", root, id)
			for ; i < end; i++ {
				if _, err := ds.ScoreSample(tt.Times[i], tt.Samples[i]); err != nil {
					return "", 0, fmt.Errorf("detect leg, %s: %w", v.id, err)
				}
				scored++
			}
			tr.end(sp)
		}
		tr.end(root)
	}
	spans := tr.byName()
	m["transform."+own+"_ns_per_record"] = float64(spans["transform.feed"].Total) / float64(fed)
	if own == "correlation" {
		m["transform.emit_ratio_correlation"] = float64(emitted) / float64(fed)
	}
	m["core.fill_fit_ms"] = ms(spans["core.fill_fit"].Total)
	m["core.fits"] = float64(fits)
	if scored > 0 {
		m["core.score_ns_per_sample"] = float64(spans["core.score"].Total) / float64(scored)
	} else {
		m["core.score_ns_per_sample"] = 0
	}
	m["core.filter_drop_share"] = float64(fed-kept) / float64(fed)

	// The other transformations, default clean filter, same vehicles.
	for _, kind := range transform.PaperKinds() {
		if kind.String() == own {
			continue
		}
		name := "transform." + kind.String()
		var nEmit int
		for vi, v := range streams {
			t, err := transform.New(kind, 12)
			if err != nil {
				return "", 0, err
			}
			sp := tr.begin(name, -1, uint64(2_000_000+vi))
			tt, err := collect(v, core.TransformConfig{Transformer: t})
			tr.end(sp)
			if err != nil {
				return "", 0, fmt.Errorf("%s leg, %s: %w", name, v.id, err)
			}
			nEmit += len(tt.Samples)
		}
		m[name+"_ns_per_record"] = float64(tr.byName()[name].Total) / float64(fed)
		if kind == transform.Correlation {
			m["transform.emit_ratio_correlation"] = float64(nEmit) / float64(fed)
		}
	}
	return own, fed, nil
}

// detectorLegs times each paper technique's Fit and Score alone, on the
// first vehicle's samples: correlation space with a 45-sample profile
// for closest-pair and Grand, raw space with a 900-sample profile for
// TranAD and XGBoost — the profile sizes the grid and score_heavy use.
func (in *layerInputs) detectorLegs(m metricSet, first vehicleStream) error {
	samples := map[transform.Kind][][]float64{}
	names := map[transform.Kind][]string{}
	for _, kind := range []transform.Kind{transform.Correlation, transform.Raw} {
		t, err := transform.New(kind, 12)
		if err != nil {
			return err
		}
		tt, err := collect(first, core.TransformConfig{Transformer: t})
		if err != nil {
			return err
		}
		samples[kind], names[kind] = tt.Samples, t.FeatureNames()
	}
	legs := []struct {
		tech    eval.Technique
		name    string
		kind    transform.Kind
		profile int
		fitKey  string
		fitUnit time.Duration
		scKey   string
		scUnit  time.Duration
	}{
		{eval.ClosestPair, "closestpair", transform.Correlation, 45, "fit_us", time.Microsecond, "score_ns", time.Nanosecond},
		{eval.Grand, "grand", transform.Correlation, 45, "fit_us", time.Microsecond, "score_ns", time.Nanosecond},
		{eval.TranAD, "tranad", transform.Raw, 900, "fit_ms", time.Millisecond, "score_us", time.Microsecond},
		{eval.XGBoost, "xgboost", transform.Raw, 900, "fit_ms", time.Millisecond, "score_us", time.Microsecond},
	}
	for _, leg := range legs {
		xs := samples[leg.kind]
		if len(xs) < leg.profile+10 {
			return fmt.Errorf("detector leg %s: vehicle %s has %d %v samples, need %d", leg.name, first.id, len(xs), leg.kind, leg.profile+10)
		}
		ref, probe := xs[:leg.profile], xs[leg.profile:]
		if len(probe) > 5000 {
			probe = probe[:5000]
		}
		var det detector.Detector
		var fits []time.Duration
		for r := 0; r < 3; r++ {
			d, err := eval.NewDetector(leg.tech, names[leg.kind], in.fleet.Config.Seed)
			if err != nil {
				return err
			}
			start := time.Now()
			if err := d.Fit(ref); err != nil {
				return fmt.Errorf("detector leg %s: fit: %w", leg.name, err)
			}
			fits = append(fits, time.Since(start))
			det = d
		}
		dst := make([]float64, det.Channels())
		score := func() error {
			for _, x := range probe {
				if err := detector.ScoreInto(det, x, dst); err != nil {
					return err
				}
			}
			return nil
		}
		if err := score(); err != nil { // warm scratch buffers
			return fmt.Errorf("detector leg %s: score: %w", leg.name, err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if err := score(); err != nil {
			return fmt.Errorf("detector leg %s: score: %w", leg.name, err)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&ms1)
		prefix := "detector." + leg.name + "."
		m[prefix+leg.fitKey] = float64(durMedian(fits)) / float64(leg.fitUnit)
		m[prefix+leg.scKey] = float64(took) / float64(leg.scUnit) / float64(len(probe))
		m[prefix+"score_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(probe))

		if leg.tech == eval.ClosestPair {
			// Thresholder alone, on the scores this detector just made.
			scores := make([][]float64, len(probe))
			for i, x := range probe {
				s, err := det.Score(x)
				if err != nil {
					return err
				}
				scores[i] = s
			}
			th := thresholds.NewSelfTuning(10)
			if err := th.Fit(scores); err != nil {
				return fmt.Errorf("threshold leg: %w", err)
			}
			start := time.Now()
			for _, s := range scores {
				th.Violations(s)
			}
			m["thresholds.violations_ns"] = float64(time.Since(start)) / float64(len(scores))
		}
	}
	return nil
}
