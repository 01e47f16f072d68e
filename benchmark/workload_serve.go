package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/fleetsim"
)

// serveInputs is what both HTTP workloads send and check against.
type serveInputs struct {
	parts  []*frameSet // one per ingest connection
	index  frameIndex
	nRec   int
	factor float64
	want   []alarmKey // reference alarms, sorted
	// vehicles cycles through GET /vehicles/{id}.
	vehicles []string
	// fleet is kept for the traced run's in-process legs; the timed run
	// drops it before measuring so the harness's own heap stays small.
	fleet *fleetsim.Fleet
	genS  float64
	encS  float64
}

// setupServe generates the fleet, frames it for conns connections, and
// computes the reference alarms. maxFrames > 0 truncates the (single)
// stream to that many frames — the paced schedule's length — and the
// reference then covers exactly the records those frames carry.
func setupServe(cfg *runCfg, perFrame, conns int, factor float64, maxFrames int) (*serveInputs, error) {
	in := &serveInputs{factor: factor}
	start := time.Now()
	f := fleetsim.Generate(fleetConfig(cfg.workload, cfg.scale, cfg.seed))
	in.genS = time.Since(start).Seconds()

	start = time.Now()
	parts, index, err := encodePartitions(f.Records, f.Events, perFrame, conns)
	if err != nil {
		return nil, err
	}
	in.encS = time.Since(start).Seconds()
	records, events := f.Records, f.Events
	if maxFrames > 0 && maxFrames < len(parts[0].frames) {
		// One chronological stream: its first n frames carry a prefix of
		// the records and a prefix of the events.
		parts[0] = parts[0].prefix(maxFrames)
		records, events = records[:parts[0].nRec], events[:parts[0].nEv]
	}
	in.parts, in.index = parts, index
	for _, p := range parts {
		in.nRec += p.nRec
	}
	in.want, err = referenceAlarms(records, events, servePipeline(factor, nil), cfg.nproc)
	if err != nil {
		return nil, err
	}
	in.vehicles = f.AllVehicleIDs()
	in.fleet = f
	return in, nil
}

// alarmSeen is one alarm line and when the harness read it.
type alarmSeen struct {
	line alarmLine
	at   time.Time
}

// servePass is what one run against a fresh server process produced.
type servePass struct {
	wall time.Duration
	// cpu is the user + system CPU time of the server process over its
	// whole life, read from its exit status.
	cpu     time.Duration
	alarmMs []float64 // frame sent or due -> its alarm line read
	postMs  []float64 // frame due -> response read (paced only)
	svcUs   []float64 // frame sent -> response read
	readMs  []float64 // GET due -> body read (paced only)
	lateMs  []float64 // ingest request sent this long after it was due (paced only)
	// unmapped counts alarm lines naming a record no frame carried.
	unmapped int

	scrapeMs  []float64
	queueMax  float64
	bytesIn   float64
	rssMB     float64
	tally     *httpTally
	verifyErr error
}

// serveSession is one server process with the plumbing every pass
// needs: alarm capture, the journal, the request tally.
type serveSession struct {
	in      *serveInputs
	proc    *serverProc
	journal string
	tally   *httpTally
	mu      sync.Mutex
	seen    []alarmSeen
}

func startSession(ctx context.Context, cfg *runCfg, in *serveInputs, pass int) (*serveSession, error) {
	s := &serveSession{in: in, tally: &httpTally{},
		journal: filepath.Join(cfg.workDir, fmt.Sprintf("journal-%s-%d.jsonl", cfg.workload, pass))}
	s.seen = make([]alarmSeen, 0, len(in.want)+16)
	proc, err := startServer(ctx, cfg.serverBin, serverOpts{
		shards: cfg.nproc, factor: in.factor, journal: s.journal,
		onAlarm: func(a alarmLine, at time.Time) {
			s.mu.Lock()
			s.seen = append(s.seen, alarmSeen{a, at})
			s.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	s.proc = proc
	return s, nil
}

// waitProcessed polls /fleet until the engine has processed every
// record sent, and returns when the satisfying answer arrived.
func (s *serveSession) waitProcessed(ctx context.Context, c *conn) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s.tally.requests.Add(1)
		got, err := fleetRecordsIn(c.client, s.proc.base+"/fleet?n=1")
		now := time.Now()
		if err != nil {
			s.tally.failed.Add(1)
			return now, err
		}
		if got == uint64(s.in.nRec) {
			return now, nil
		}
		if got > uint64(s.in.nRec) {
			return now, fmt.Errorf("server processed %d records, only %d were sent", got, s.in.nRec)
		}
		if now.After(deadline) || ctx.Err() != nil {
			return now, fmt.Errorf("server processed %d of %d records after 60s", got, s.in.nRec)
		}
		time.Sleep(time.Millisecond)
	}
}

// finish ends a pass once its senders are done (sendErr is their first
// error): it waits until the server has processed every record, which
// closes the timed window opened at start; takes the totals from
// /metrics; stops the server (SIGTERM: it drains and closes the
// journal); verifies the journal against the reference; and turns alarm
// lines into latencies — sentAt says when a frame was sent (burst) or
// due (paced).
func (s *serveSession) finish(ctx context.Context, p *servePass, start time.Time, sendErr error,
	sentAt func(frameRef) time.Time) error {
	poll := newConn(s.proc.base, s.tally)
	defer poll.close()
	end, err := time.Time{}, sendErr
	if err == nil {
		end, err = s.waitProcessed(ctx, poll)
	}
	if err != nil {
		return fmt.Errorf("%w; server stderr:\n%s", err, s.proc.stderr)
	}
	p.wall = end.Sub(start)
	if _, body, err := poll.get(ctx, "/metrics"); err == nil {
		p.observeMetrics(body)
	}
	p.rssMB = s.proc.rssPeakMB()
	if err := s.proc.stop(); err != nil {
		return err
	}
	p.cpu = s.proc.cpu()
	p.tally = s.tally
	got, err := readJournal(s.journal)
	if err != nil {
		return err
	}
	p.verifyErr = diffAlarms(got, s.in.want)
	for _, a := range s.seen {
		ref, ok := s.in.index.lookup(a.line.vehicle, a.line.minute)
		if !ok {
			p.unmapped++
			continue
		}
		p.alarmMs = append(p.alarmMs, ms(a.at.Sub(sentAt(ref))))
	}
	if p.verifyErr == nil && (p.unmapped > 0 || len(s.seen) != len(s.in.want)) {
		p.verifyErr = fmt.Errorf("journal matches the reference but stdout carried %d alarm lines (%d naming no sent record), want %d",
			len(s.seen), p.unmapped, len(s.in.want))
	}
	return nil
}

// scraper polls /metrics on its own connection until stopped: the
// traced run's view of queue depth, scrape cost and bytes admitted.
func (s *serveSession) scraper(ctx context.Context, every time.Duration, p *servePass) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	c := newConn(s.proc.base, s.tally)
	go func() {
		defer close(done)
		defer c.close()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			start := time.Now()
			if at, body, err := c.get(ctx, "/metrics"); err == nil {
				p.scrapeMs = append(p.scrapeMs, ms(at.Sub(start)))
				p.observeMetrics(body)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

// observeMetrics keeps what one /metrics body says about queue depth
// and bytes admitted.
func (p *servePass) observeMetrics(body []byte) {
	if _, m := promSample(body, "pdm_fleet_shard_queue_depth"); m > p.queueMax {
		p.queueMax = m
	}
	if sum, _ := promSample(body, "pdm_ingest_bytes_total"); sum > p.bytesIn {
		p.bytesIn = sum
	}
}

// burstPass is one closed-loop pass: every connection posts its own
// vehicle partition frame after frame, each frame as soon as the
// previous response is read. Timed from the first POST until /fleet
// reports every record processed.
func burstPass(ctx context.Context, cfg *runCfg, in *serveInputs, pass int, scrape bool) (*servePass, error) {
	s, err := startSession(ctx, cfg, in, pass)
	if err != nil {
		return nil, err
	}
	defer s.proc.kill()
	p := &servePass{}
	stopScrape := func() {}
	if scrape {
		stopScrape = s.scraper(ctx, 50*time.Millisecond, p)
	}

	sentAt := make([][]time.Time, len(in.parts))
	svc := make([][]float64, len(in.parts))
	var errs firstErr
	var wg sync.WaitGroup
	start := time.Now()
	for pi, part := range in.parts {
		sentAt[pi] = make([]time.Time, len(part.frames))
		svc[pi] = make([]float64, 0, len(part.frames))
		wg.Add(1)
		go func(pi int, part *frameSet) {
			defer wg.Done()
			c := newConn(s.proc.base, s.tally)
			defer c.close()
			for i, fr := range part.frames {
				t := time.Now()
				sentAt[pi][i] = t
				done, err := c.post(ctx, fr)
				if err != nil {
					errs.set(err)
					return
				}
				svc[pi] = append(svc[pi], float64(done.Sub(t))/float64(time.Microsecond))
			}
		}(pi, part)
	}
	wg.Wait()
	stopScrape()
	for _, v := range svc {
		p.svcUs = append(p.svcUs, v...)
	}
	err = s.finish(ctx, p, start, errs.get(), func(r frameRef) time.Time { return sentAt[r.part][r.frame] })
	return p, err
}

// readPath is the endpoint of the paced reader's i-th GET.
func readPath(i int, vehicles []string) string {
	switch i % 4 {
	case 0:
		return "/alarms?n=100"
	case 1:
		return "/vehicles/" + vehicles[(i/4)%len(vehicles)]
	case 2:
		return "/fleet"
	default:
		return "/metrics"
	}
}

// pacedPass is the open loop: one ingest connection posts a small frame
// every 1/pacedFramesPerS seconds on a fixed schedule, one reader
// connection issues pacedReadsPerS GETs per second. Every latency is
// timed from the request's due time.
func pacedPass(ctx context.Context, cfg *runCfg, in *serveInputs) (*servePass, error) {
	s, err := startSession(ctx, cfg, in, 0)
	if err != nil {
		return nil, err
	}
	defer s.proc.kill()
	p := &servePass{}
	frames := in.parts[0].frames
	interval := time.Second / pacedFramesPerS
	readEvery := time.Second / pacedReadsPerS
	nReads := int(time.Duration(len(frames)) * interval / readEvery)

	p.postMs = make([]float64, 0, len(frames))
	p.svcUs = make([]float64, 0, len(frames))
	p.readMs = make([]float64, 0, nReads)
	var errs firstErr
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(s.proc.base, s.tally)
		defer c.close()
		late := runSchedule(ctx, wallClock{}, start, interval, len(frames), func(i int, due time.Time) {
			sent := time.Now()
			done, err := c.post(ctx, frames[i])
			errs.set(err)
			p.postMs = append(p.postMs, ms(done.Sub(due)))
			p.svcUs = append(p.svcUs, float64(done.Sub(sent))/float64(time.Microsecond))
		})
		for _, l := range late {
			p.lateMs = append(p.lateMs, ms(l))
		}
	}()
	go func() {
		defer wg.Done()
		c := newConn(s.proc.base, s.tally)
		defer c.close()
		runSchedule(ctx, wallClock{}, start, readEvery, nReads, func(i int, due time.Time) {
			path := readPath(i, in.vehicles)
			sent := time.Now()
			done, body, err := c.get(ctx, path)
			errs.set(err)
			p.readMs = append(p.readMs, ms(done.Sub(due)))
			if path == "/metrics" && err == nil { // the scrape fields are this goroutine's alone
				p.scrapeMs = append(p.scrapeMs, ms(done.Sub(sent)))
				p.observeMetrics(body)
			}
		})
	}()
	wg.Wait()
	err = s.finish(ctx, p, start, errs.get(), func(r frameRef) time.Time { return start.Add(time.Duration(r.frame) * interval) })
	return p, err
}

// releaseFleet drops the generated fleet and returns the freed heap, so
// the harness's collector has nothing to do while the server is timed.
func (in *serveInputs) releaseFleet() {
	in.fleet = nil
	runtime.GC()
	debug.FreeOSMemory()
}

func (p *servePass) attempted() int { return int(p.tally.requests.Load()) }
func (p *servePass) failed() int    { return int(p.tally.failed.Load()) }

// runBurst is ingest_burst.
func runBurst(ctx context.Context, cfg *runCfg) (*outcome, error) {
	out := newOutcome()
	var in *serveInputs
	setupS, err := cfg.repeatSetup(func() error {
		var err error
		in, err = setupServe(cfg, burstFrameItems, cfg.nproc, serveFactor, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		in.releaseFleet()
	}
	out.note("records=%d frames=%d connections=%d shards=%d reference_alarms=%d",
		in.nRec, totalFrames(in.parts), len(in.parts), cfg.nproc, len(in.want))

	var walls []float64
	var alarmMs, svcUs []float64
	var last *servePass
	minPasses := 3
	if cfg.scale == scaleSmoke || cfg.trace {
		minPasses = 1
	}
	measured := time.Duration(0)
	for pass := 0; pass < minPasses || (!cfg.trace && measured.Seconds() < cfg.seconds); pass++ {
		p, err := burstPass(ctx, cfg, in, pass, cfg.trace)
		if err != nil {
			return nil, err
		}
		out.attempted += p.attempted()
		out.failed += p.failed()
		out.verify(p.verifyErr)
		walls = append(walls, p.wall.Seconds())
		alarmMs = append(alarmMs, p.alarmMs...)
		svcUs = append(svcUs, p.svcUs...)
		measured += p.wall
		last = p
		fmt.Fprintf(cfg.log, "pass %d: %.3fs, %.0f records/s, server CPU %.3fs, %d alarm lines\n",
			pass, p.wall.Seconds(), float64(in.nRec)/p.wall.Seconds(), p.cpu.Seconds(), len(p.alarmMs))
	}
	alarms := summarize(alarmMs)
	out.note("passes=%d alarm_ms_samples=%d (highest supported percentile p%g)", len(walls), alarms.N, alarms.TailQ*100)
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["records_per_s"] = float64(in.nRec) / median(walls)
		return out, nil
	}

	m := out.metrics
	serveLayerCommon(m, last, alarms, in.nRec)
	m["serve.post_service_us_p50"] = summarize(svcUs).P50
	m["fleetsim.generate_s"], m["wire.encode_s"] = in.genS, in.encS
	li, err := in.layerInputs(cfg, burstFrameItems)
	if err != nil {
		return nil, err
	}
	tr := newTracer(0)
	if err := li.measureLayers(m, tr, cfg.log); err != nil {
		return nil, err
	}
	m["serve.http_ns_per_record"] = median(walls)*1e9/float64(in.nRec) - m["budget.wall_ns_per_record"]
	return out, cfg.writeTrace(tr)
}

func totalFrames(parts []*frameSet) int {
	n := 0
	for _, p := range parts {
		n += len(p.frames)
	}
	return n
}

// serveLayerCommon fills the serve.* metrics both HTTP workloads share;
// p is the pass the per-process figures come from, nRec what it sent.
func serveLayerCommon(m metricSet, p *servePass, alarms dist, nRec int) {
	m["serve.alarm_ms_p50"], m["serve.alarm_ms_p95"], m["serve.alarm_ms_p99"] = alarms.P50, alarms.at(0.95), alarms.at(0.99)
	m["serve.cpu_ns_per_record"] = float64(p.cpu) / float64(nRec)
	m["serve.requests"] = float64(p.tally.requests.Load())
	m["serve.bytes_in"] = p.bytesIn
	m["serve.status_4xx"] = float64(p.tally.status4xx.Load())
	m["serve.status_5xx"] = float64(p.tally.status5xx.Load())
	m["serve.rss_mb_peak"] = p.rssMB
	m["serve.metrics_scrape_ms_p50"] = summarize(p.scrapeMs).P50
	m["fleet.queue_depth_max"] = p.queueMax
}

// layerInputs hands the in-process legs the same fleet, re-framed as
// one stream (per-vehicle order is what matters to the engine, and one
// chronological stream preserves it as every partition does).
func (in *serveInputs) layerInputs(cfg *runCfg, perFrame int) (*layerInputs, error) {
	records, events := in.fleet.Records, in.fleet.Events
	if len(in.parts) == 1 { // paced: exactly the truncated prefix that was sent
		records, events = records[:in.parts[0].nRec], events[:in.parts[0].nEv]
	}
	parts, _, err := encodePartitions(records, events, perFrame, 1)
	if err != nil {
		return nil, err
	}
	f := *in.fleet
	f.Records, f.Events = records, events
	return &layerInputs{
		fleet: &f, frames: parts[0],
		newConfig: func(o *pdm.Observer) func(string) (pdm.PipelineConfig, error) { return servePipeline(in.factor, o) },
		batchCtx:  true, shards: cfg.nproc, quick: cfg.scale == scaleSmoke,
	}, nil
}

// runPaced is ingest_paced.
func runPaced(ctx context.Context, cfg *runCfg) (*outcome, error) {
	out := newOutcome()
	maxFrames := int(cfg.seconds * pacedFramesPerS)
	if maxFrames < 1 {
		maxFrames = 1
	}
	var in *serveInputs
	setupS, err := cfg.repeatSetup(func() error {
		var err error
		in, err = setupServe(cfg, pacedFrameItems, 1, pacedFactor, maxFrames)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		in.releaseFleet()
	}
	p, err := pacedPass(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = p.attempted(), p.failed()
	out.verify(p.verifyErr)
	alarms, posts, reads, late := summarize(p.alarmMs), summarize(p.postMs), summarize(p.readMs), summarize(p.lateMs)
	out.note("records=%d frames=%d at %d frames/s, reads=%d at %d/s, connections=1+1 shards=%d reference_alarms=%d",
		in.nRec, len(in.parts[0].frames), pacedFramesPerS, reads.N, pacedReadsPerS, cfg.nproc, len(in.want))
	out.note("alarm_ms_samples=%d (highest supported percentile p%g) post_samples=%d read_samples=%d (p%g)",
		alarms.N, alarms.TailQ*100, posts.N, reads.N, reads.TailQ*100)
	out.note("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms; post p50 %.3f ms",
		late.P50, late.at(0.99), late.Max, posts.P50)
	if !cfg.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["records_per_s"] = float64(in.nRec) / p.wall.Seconds()
		return out, nil
	}

	m := out.metrics
	serveLayerCommon(m, p, alarms, in.nRec)
	m["serve.small_post_service_us_p50"] = summarize(p.svcUs).P50
	m["serve.post_ms_p50"], m["serve.post_ms_p95"], m["serve.post_ms_p99"] = posts.P50, posts.at(0.95), posts.at(0.99)
	m["serve.read_ms_p50"], m["serve.read_ms_p95"] = reads.P50, reads.at(0.95)
	m["loadgen.late_ms_p99"], m["loadgen.late_ms_max"] = late.at(0.99), late.Max
	m["fleetsim.generate_s"], m["wire.encode_s"] = in.genS, in.encS
	li, err := in.layerInputs(cfg, pacedFrameItems)
	if err != nil {
		return nil, err
	}
	tr := newTracer(0)
	if err := li.measureLayers(m, tr, cfg.log); err != nil {
		return nil, err
	}
	return out, cfg.writeTrace(tr)
}
