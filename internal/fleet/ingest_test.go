package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// batchedAlarms replays the fleet through IngestBatch in chunks of the
// given size, cutting the globally merged stream at arbitrary points so
// batches span shard boundaries and record/event interleaves.
func batchedAlarms(t *testing.T, f *fleetsim.Fleet, shards, chunk int) ([]detector.Alarm, EngineStats) {
	t.Helper()
	type item struct {
		isEvent bool
		rec     timeseries.Record
		ev      obd.Event
	}
	var items []item
	err := core.Merged("", f.Records, f.Events,
		func(ev obd.Event) error { items = append(items, item{isEvent: true, ev: ev}); return nil },
		func(r timeseries.Record) error { items = append(items, item{rec: r}); return nil })
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
		Shards:    shards,
		batchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	var recs []timeseries.Record
	var evs []obd.Event
	for start := 0; start < len(items); start += chunk {
		end := start + chunk
		if end > len(items) {
			end = len(items)
		}
		recs, evs = recs[:0], evs[:0]
		for _, it := range items[start:end] {
			if it.isEvent {
				evs = append(evs, it.ev)
			} else {
				recs = append(recs, it.rec)
			}
		}
		if err := e.IngestBatch(recs, evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	out := wait()
	sortAlarms(out)
	return out, e.Stats()
}

// TestIngestBatchMatchesReplay pins the admission seam's determinism:
// for any shard count and chunk size — including chunks that span shard
// boundaries and split record/event ties — IngestBatch yields exactly
// the serial replay's alarms, bit for bit.
func TestIngestBatchMatchesReplay(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; identity check is vacuous")
	}
	for _, shards := range []int{1, 2, 3} {
		for _, chunk := range []int{1, 37, 1024} {
			got, stats := batchedAlarms(t, f, shards, chunk)
			requireSameAlarms(t, fmt.Sprintf("shards=%d chunk=%d", shards, chunk), got, want)
			if stats.RecordsIn != uint64(len(f.Records)) {
				t.Errorf("shards=%d chunk=%d: RecordsIn = %d, want %d",
					shards, chunk, stats.RecordsIn, len(f.Records))
			}
			if stats.EventsIn != uint64(len(f.Events)) {
				t.Errorf("shards=%d chunk=%d: EventsIn = %d, want %d",
					shards, chunk, stats.EventsIn, len(f.Events))
			}
		}
	}
}

// TestWireVsReplayAlarmIdentity is the end-to-end data-plane oracle
// gated in `make ingest-smoke`: a fleet encoded to NVWIRE1 frames,
// stream-decoded, and admitted through IngestBatch must produce alarms
// Float64bits-identical to an in-memory Replay — at one shard and at
// two, where batches genuinely split across shard queues.
func TestWireVsReplayAlarmIdentity(t *testing.T) {
	f := smallFleet()
	frames, nframes, err := wire.EncodeStream(nil, f.Records, f.Events, 256)
	if err != nil {
		t.Fatal(err)
	}
	if nframes < 2 {
		t.Fatalf("only %d frames; multi-frame path not exercised", nframes)
	}
	for _, shards := range []int{1, 2} {
		want, _ := engineAlarms(t, f, shards, 16)
		if len(want) == 0 {
			t.Fatal("replay produced no alarms; identity check is vacuous")
		}
		e, err := NewEngine(Config{
			NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
			Shards:    shards,
			batchSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		wait := drainAlarms(e)
		var dec wire.Decoder
		decoded, err := dec.DecodeStream(bytes.NewReader(frames), wire.SinkFunc(func(b *wire.Batch) error {
			return e.IngestBatch(b.Records, b.Events)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if decoded != nframes {
			t.Fatalf("decoded %d frames, want %d", decoded, nframes)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		got := wait()
		sortAlarms(got)
		requireSameAlarms(t, fmt.Sprintf("wire shards=%d", shards), got, want)
	}
}

// TestIngestBatchEmptyAndClosed checks the trivial edges: an empty
// batch is a no-op on a live engine, and any batch after Close errors
// cleanly with ErrClosed.
func TestIngestBatchEmptyAndClosed(t *testing.T) {
	e, err := NewEngine(Config{
		NewHandler: func(string) (Handler, error) { return &countHandler{}, nil },
		Shards:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RecordsIn; got != 0 {
		t.Fatalf("RecordsIn = %d after only empty batches", got)
	}
	if err := e.IngestBatch([]timeseries.Record{{VehicleID: "veh-0"}}, nil); err != ErrClosed {
		t.Fatalf("IngestBatch after Close = %v, want ErrClosed", err)
	}
}

// TestIngestBatchBackpressure pins the batch path's backpressure
// contract for multi-item calls: with the shard queue full and the
// consumer held, the next batch must block until the shard drains.
func TestIngestBatchBackpressure(t *testing.T) {
	const queueDepth = 2
	gate := make(chan struct{})
	e, err := NewEngine(Config{
		NewHandler: func(string) (Handler, error) {
			return &gateHandler{gate: gate}, nil
		},
		Shards:     1,
		batchSize:  1, // every record is its own batch
		QueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := []timeseries.Record{{VehicleID: "veh-0"}}

	// First record: dequeued immediately, shard parks inside the handler.
	if err := e.IngestBatch(rec, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// One batch call filling the queue exactly must not block.
	fill := make([]timeseries.Record, queueDepth)
	for i := range fill {
		fill[i].VehicleID = "veh-0"
	}
	if err := e.IngestBatch(fill, nil); err != nil {
		t.Fatal(err)
	}

	// Queue is full: the next batch must block on the channel send.
	blocked := make(chan struct{})
	go func() {
		if err := e.IngestBatch(rec, nil); err != nil {
			t.Error(err)
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("IngestBatch into a full shard queue returned without blocking")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked IngestBatch never completed after the consumer drained")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().RecordsIn, uint64(queueDepth+2); got != want {
		t.Fatalf("RecordsIn = %d, want %d", got, want)
	}
}

// TestIngestBatchDuringCheckpointBarrier races IngestBatch against a
// live checkpoint. The barrier holds every ingest mutex while shards
// are parked; a concurrent batch must land entirely before the barrier
// or entirely after the release, and no record may be lost or
// double-counted.
func TestIngestBatchDuringCheckpointBarrier(t *testing.T) {
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
		Shards:    2,
		batchSize: 64, // large: batches below stay pending until flushed
	})
	if err != nil {
		t.Fatal(err)
	}
	f := smallFleet()
	batch := func(n, salt int) []timeseries.Record {
		out := make([]timeseries.Record, n)
		for i := range out {
			out[i] = f.Records[(salt+i)%len(f.Records)]
			out[i].VehicleID = fmt.Sprintf("veh-%02d", (salt+i)%8)
		}
		return out
	}
	const staged = 40
	if err := e.IngestBatch(batch(staged, 0), nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var buf bytes.Buffer
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := e.Checkpoint(&buf); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		// Races the quiesce: must serialize against the barrier, never
		// deadlock or inject into the quiesced window.
		if err := e.IngestBatch(batch(staged, 7), nil); err != nil {
			t.Error(err)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("IngestBatch deadlocked against an in-flight checkpoint barrier")
	}
	if buf.Len() == 0 {
		t.Fatal("checkpoint wrote no data")
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().RecordsIn, uint64(2*staged); got != want {
		t.Fatalf("RecordsIn = %d, want %d (lost or duplicated by the barrier race)", got, want)
	}
}
