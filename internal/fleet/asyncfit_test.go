package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// TestAsyncFitsMatchSyncFits is the asynchronous-refit determinism
// guarantee: queueing a fitting vehicle's samples and draining them
// after the fit must yield exactly the alarms of core.RunVehicle's
// inline fits, for any shard count.
func TestAsyncFitsMatchSyncFits(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; equivalence check is vacuous")
	}
	for _, shards := range []int{1, 3} {
		got, _ := engineAlarms(t, f, shards, 7)
		requireSameAlarms(t, fmt.Sprintf("shards=%d", shards), got, want)
	}
}

// failingFitDetector scores nothing and fails its first Fit — the
// asynchronous error path must drop the vehicle exactly like an inline
// fit error, without wedging the shard.
type failingFitDetector struct{}

var errFitBoom = errors.New("fit boom")

func (failingFitDetector) Name() string          { return "failing" }
func (failingFitDetector) Fit([][]float64) error { return errFitBoom }
func (failingFitDetector) Score([]float64) ([]float64, error) {
	return nil, detector.ErrNotFitted
}
func (failingFitDetector) Channels() int          { return 1 }
func (failingFitDetector) ChannelNames() []string { return []string{"x"} }

// TestAsyncFitErrorDropsVehicle checks an asynchronous fit failure is
// surfaced through Err and the engine still drains cleanly.
func TestAsyncFitErrorDropsVehicle(t *testing.T) {
	f := smallFleet()
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) {
			cfg := testConfig()
			cfg.Detector = failingFitDetector{}
			return cfg, nil
		},
		Shards:    2,
		batchSize: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	if err := e.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	err = e.Close()
	wait()
	if !errors.Is(err, errFitBoom) {
		t.Fatalf("Close error = %v, want wrapped errFitBoom", err)
	}
	if e.Stats().Vehicles != 0 {
		t.Fatalf("failed vehicles still active: %+v", e.Stats())
	}
}

// gatedPipeline is a core.Pipeline whose deferred fits wait for gate to
// close before they run, so a test decides what arrives behind a fit.
type gatedPipeline struct {
	*core.Pipeline
	gate <-chan struct{}
}

func (h gatedPipeline) TakePendingFit() func() error {
	fit := h.Pipeline.TakePendingFit()
	if fit == nil {
		return nil
	}
	return func() error {
		<-h.gate
		return fit()
	}
}

// newGate returns a closed-later gate for gatedPipeline and its
// release, which the test's cleanup also runs: a failing test must not
// strand its fits on fitpool slots.
func newGate(t *testing.T) (<-chan struct{}, func()) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return gate, release
}

// fitRig drives one vehicle of a stopped one-shard engine from the test
// goroutine, which plays the shard: feed delivers records, and land
// lands the next fit to complete.
type fitRig struct {
	e *Engine
	s *shard
	v *vehicle
}

func newFitRig(t *testing.T, id string, h Handler) *fitRig {
	t.Helper()
	e, err := newEngineStopped(Config{
		NewHandler: func(string) (Handler, error) { return h, nil },
		Shards:     1,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &fitRig{e: e, s: e.shards[0]}
	r.v = e.firstContact(r.s, id)
	return r
}

func (r *fitRig) feed(recs []timeseries.Record) {
	for i := range recs {
		env := envelope{rec: recs[i]}
		r.e.deliver(r.s, r.v, &env)
	}
}

func (r *fitRig) land() { r.e.finishFit(r.s, <-r.s.fitDone) }

// vehicleRecords is one vehicle's records of smallFleet(), which has
// events only on days its tests do not reach.
func vehicleRecords(t *testing.T) (string, []timeseries.Record) {
	t.Helper()
	f := smallFleet()
	id := f.AllVehicleIDs()[0]
	var recs []timeseries.Record
	for _, r := range f.Records {
		if r.VehicleID == id {
			recs = append(recs, r)
		}
	}
	return id, recs
}

// feedUntilFit delivers records until the vehicle raises its first fit
// and returns how many it took.
func (r *fitRig) feedUntilFit(t *testing.T, recs []timeseries.Record) int {
	t.Helper()
	for i := range recs {
		r.feed(recs[i : i+1])
		if r.s.fitting == 1 {
			return i + 1
		}
	}
	t.Fatal("the stream never filled a profile")
	return 0
}

// TestRecordsInCountsRecordsBehindAFit: a record that reaches a vehicle
// whose fit is in flight is counted when its shard dequeues it, not when
// the fit lands — its sample is queued, so it is in RecordsIn and not
// yet in SamplesScored.
func TestRecordsInCountsRecordsBehindAFit(t *testing.T) {
	id, recs := vehicleRecords(t)
	gate, release := newGate(t)
	p, err := core.NewPipeline(id, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newFitRig(t, id, gatedPipeline{p, gate})
	n := r.feedUntilFit(t, recs) + 2000
	r.feed(recs[n-2000 : n])
	if st := r.e.Stats(); st.RecordsIn != uint64(n) || st.SamplesScored != 0 {
		t.Fatalf("behind the fit: RecordsIn = %d, SamplesScored = %d; want %d and 0", st.RecordsIn, st.SamplesScored, n)
	}
	release()
	r.land()
	if st := r.e.Stats(); st.RecordsIn != uint64(n) || st.SamplesScored == 0 {
		t.Fatalf("after the landing: RecordsIn = %d, SamplesScored = %d; want %d and the queued samples", st.RecordsIn, st.SamplesScored, n)
	}
}

// failingScoreDetector is closest-pair until armed, then fails every
// score.
type failingScoreDetector struct {
	detector.Detector
	armed *bool
}

var errScoreBoom = errors.New("score boom")

func (d failingScoreDetector) Score(x []float64) ([]float64, error) {
	if *d.armed {
		return nil, errScoreBoom
	}
	return d.Detector.Score(x)
}

// TestLandFitErrorCountsEveryRecord: when the drain after a fit fails,
// the vehicle is dropped with the drain's error, and every record is in
// RecordsIn — the ones whose samples were queued behind the fit, and the
// ones that arrive for the dropped vehicle afterwards.
func TestLandFitErrorCountsEveryRecord(t *testing.T) {
	id, recs := vehicleRecords(t)
	gate, release := newGate(t)
	cfg := testConfig()
	var armed bool
	cfg.Detector = failingScoreDetector{cfg.Detector, &armed}
	p, err := core.NewPipeline(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newFitRig(t, id, gatedPipeline{p, gate})
	n := r.feedUntilFit(t, recs) + 500
	r.feed(recs[n-500 : n])
	release()
	res := <-r.s.fitDone
	armed = true
	r.e.finishFit(r.s, res)
	r.feed(recs[n : n+100])
	if err := r.e.Err(); !errors.Is(err, errScoreBoom) {
		t.Fatalf("Err() = %v, want the drain's error", err)
	}
	st := r.e.Stats()
	if !r.v.skipped || st.Vehicles != 0 || st.RecordsIn != uint64(n+100) {
		t.Fatalf("after the failed drain: skipped=%v, Vehicles = %d, RecordsIn = %d; want a dropped vehicle and %d records",
			r.v.skipped, st.Vehicles, st.RecordsIn, n+100)
	}
}

// TestGatedFitsMatchSerialReplay drives real pipelines through a running
// engine whose first fit per vehicle is held until the whole fleet
// stream — traced frames, maintenance events among them — has arrived
// behind it: every vehicle queues the rest of its stream while its fit
// is in flight, and a live Checkpoint lands the fits and drains the
// queues. The alarms must be the serial replay's; each journaled alarm
// must carry the batch context of the frame its own record came in, and
// a queue wait that leaves the time spent behind the fit to
// E2ELatencyS; and the checkpoint must be byte-identical to one an
// untraced, ungated Replay takes at the same cut.
func TestGatedFitsMatchSerialReplay(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; the comparison is vacuous")
	}
	const hold = 30 * time.Millisecond

	// The reference checkpoint: a plain Replay, fits landing as they come.
	ref, err := NewEngine(Config{NewConfig: func(string) (core.Config, error) { return testConfig(), nil }, Shards: 2, batchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	waitRef := drainAlarms(ref)
	if err := ref.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	var wantCkpt bytes.Buffer
	if err := ref.Checkpoint(&wantCkpt); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	waitRef()

	j := obs.NewJournal(4096)
	o := obs.NewObserver(obs.NewRegistry(), obs.ObserverConfig{Journal: j})
	gate, release := newGate(t)
	e, err := NewEngine(Config{
		NewHandler: func(id string) (Handler, error) {
			cfg := testConfig()
			cfg.Observer = o
			p, err := core.NewPipeline(id, cfg)
			return gatedPipeline{p, gate}, err
		},
		Shards: 2, batchSize: 32, Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	batches := ingestTraced(t, e, f.Records, f.Events, 48)
	e.Flush()
	deadline := time.Now().Add(time.Minute)
	for e.Stats().RecordsIn < uint64(len(f.Records)) {
		if time.Now().After(deadline) {
			t.Fatalf("shards dequeued %d of %d records", e.Stats().RecordsIn, len(f.Records))
		}
		time.Sleep(time.Millisecond)
	}
	if st := e.Stats(); st.SamplesScored != 0 {
		t.Fatalf("%d samples scored with every first fit held", st.SamplesScored)
	}
	time.Sleep(hold)
	release()
	var gotCkpt bytes.Buffer
	if err := e.Checkpoint(&gotCkpt); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()
	sortAlarms(got)
	requireSameAlarms(t, "gated", got, want)
	if !bytes.Equal(gotCkpt.Bytes(), wantCkpt.Bytes()) {
		t.Fatal("checkpoint after gated fits differs from the ungated replay's")
	}

	// Which frame each record came in: ingestTraced cuts 48-record chunks.
	type key struct {
		id string
		t  int64
	}
	frame := map[key]*obs.BatchCtx{}
	for i, r := range f.Records {
		frame[key{r.VehicleID, r.Time.UnixNano()}] = batches[i/48]
	}
	if j.Total() != uint64(len(want)) {
		t.Fatalf("journal holds %d alarms, want %d", j.Total(), len(want))
	}
	for _, a := range j.Last(0) {
		bc := frame[key{a.VehicleID, a.Time.UnixNano()}]
		if bc == nil || a.BatchID != bc.BatchID || a.TraceID != bc.TraceID || !a.ArrivalTime.Equal(bc.Arrival) {
			t.Fatalf("alarm at %v for %s carries batch %d (trace %#x, arrival %v), not its record's frame",
				a.Time, a.VehicleID, a.BatchID, a.TraceID, a.ArrivalTime)
		}
		if a.QueueWaitS < 0 || a.E2ELatencyS-a.QueueWaitS < hold.Seconds() {
			t.Fatalf("alarm at %v for %s: queue wait %v s, end to end %v s; the %v behind its fit must be the difference",
				a.Time, a.VehicleID, a.QueueWaitS, a.E2ELatencyS, hold)
		}
	}
}
