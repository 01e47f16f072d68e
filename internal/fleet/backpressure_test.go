package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// gateHandler blocks every HandleRecord on a gate channel, simulating a
// slow consumer so tests can hold a shard mid-batch deterministically.
type gateHandler struct {
	gate <-chan struct{}
	n    uint64
}

func (h *gateHandler) HandleRecord(timeseries.Record) ([]detector.Alarm, error) {
	<-h.gate
	h.n++
	return nil, nil
}
func (h *gateHandler) HandleEvent(obd.Event) {}
func (h *gateHandler) ScoredSamples() uint64 { return h.n }

// TestEngineBackpressureBlocksAtQueueDepth pins the backpressure
// contract: with the shard queue full (queueDepth batches) and the
// shard goroutine held inside a handler, the next batch-completing
// ingest must block in enqueueStaged's send — and must complete once the
// consumer drains. The queue fills through one-item calls, or through
// one multi-item call that must itself not block.
func TestEngineBackpressureBlocksAtQueueDepth(t *testing.T) {
	const queueDepth = 2
	for _, fillCalls := range []int{queueDepth, 1} {
		t.Run(fmt.Sprintf("fill-calls=%d", fillCalls), func(t *testing.T) {
			gate := make(chan struct{})
			e := newEngine(t, Config{
				NewHandler: func(string) (Handler, error) {
					return &gateHandler{gate: gate}, nil
				},
				Shards:     1,
				batchSize:  1, // every record is its own batch
				queueDepth: queueDepth,
			})
			rec := []timeseries.Record{{VehicleID: "veh-0"}}

			// First record: dequeued immediately, shard parks inside the
			// handler. The drain loop may pull one more queued batch into
			// the shard's local variable before the handler gate is
			// reached, so give the shard time to settle, then fill the
			// queue to capacity.
			if err := e.IngestBatch(rec, nil); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			fill := make([]timeseries.Record, queueDepth/fillCalls)
			for i := range fill {
				fill[i].VehicleID = "veh-0"
			}
			for i := 0; i < fillCalls; i++ {
				if err := e.IngestBatch(fill, nil); err != nil {
					t.Fatal(err)
				}
			}

			// Queue is full: the next ingest must block on the channel send.
			blocked := make(chan struct{})
			go func() {
				if err := e.IngestBatch(rec, nil); err != nil {
					t.Error(err)
				}
				close(blocked)
			}()
			select {
			case <-blocked:
				t.Fatal("ingest into a full shard queue returned without blocking")
			case <-time.After(50 * time.Millisecond):
			}

			// Release the consumer: the blocked producer must complete and
			// every record must be processed.
			close(gate)
			select {
			case <-blocked:
			case <-time.After(5 * time.Second):
				t.Fatal("blocked ingest never completed after the consumer drained")
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := e.Stats().RecordsIn, uint64(queueDepth+2); got != want {
				t.Fatalf("RecordsIn = %d, want %d", got, want)
			}
		})
	}
}

// TestCordonStateBesideBackpressure pins what guarding the fence with
// the ingest mutex means for its callers: while a producer is blocked on
// a full shard queue it holds that mutex, so Cordon, CordonState and
// Uncordon for any vehicle of the shard wait for it — and complete, with
// the right answers, once the consumer drains. Run under -race this is
// the gate for the fence having no lock of its own.
func TestCordonStateBesideBackpressure(t *testing.T) {
	gate := make(chan struct{})
	e := newEngine(t, Config{
		NewHandler: func(string) (Handler, error) {
			return &gateHandler{gate: gate}, nil
		},
		Shards:     1,
		batchSize:  1,
		queueDepth: 1,
	})
	rec := []timeseries.Record{{VehicleID: "veh-0"}}
	// One record parks the shard inside the handler and one fills the
	// queue: the producer below then blocks on the channel send with the
	// ingest mutex held.
	if err := e.IngestBatch(rec, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := e.IngestBatch(rec, nil); err != nil {
		t.Fatal(err)
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < 2; i++ {
			if err := e.IngestBatch(rec, nil); err != nil {
				t.Error(err)
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)

	var during, after string
	fenced := make(chan struct{})
	go func() {
		defer close(fenced)
		e.Cordon("veh-1")
		during = e.CordonState("veh-1")
		e.Uncordon("veh-1")
		after = e.CordonState("veh-1")
	}()
	select {
	case <-fenced:
		t.Fatal("the fence was written past a producer holding the shard's ingest mutex")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	for _, ch := range []chan struct{}{produced, fenced} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("still blocked after the consumer drained")
		}
	}
	if during != StateCordoned || after != "" {
		t.Fatalf("CordonState = %q while cordoned, %q after Uncordon", during, after)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RecordsIn; got != 4 {
		t.Fatalf("RecordsIn = %d, want 4", got)
	}
}

// TestEngineFlushDuringCheckpointBarrier runs Flush concurrently with a
// live checkpoint. The checkpoint barrier holds every ingest mutex
// while shards are parked; Flush must wait for the release instead of
// deadlocking or injecting a batch into the quiesced window, and no
// record may be lost or double-counted afterwards.
func TestEngineFlushDuringCheckpointBarrier(t *testing.T) {
	e := newEngine(t, Config{
		NewConfig: newTestConfig,
		Shards:    2,
		batchSize: 64, // large: records below stay pending until flushed
	})
	f := smallFleet()
	// Stage a partial batch on every shard.
	const staged = 40
	for i := 0; i < staged; i++ {
		r := f.Records[i%len(f.Records)]
		r.VehicleID = fmt.Sprintf("veh-%02d", i%8)
		if err := e.IngestBatch([]timeseries.Record{r}, nil); err != nil {
			t.Fatal(err)
		}
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
		// Races the quiesce: lands either entirely before the barrier or
		// entirely after the release.
		e.Flush()
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush deadlocked against an in-flight checkpoint barrier")
	}
	if buf.Len() == 0 {
		t.Fatal("checkpoint wrote no data")
	}

	// More traffic after the barrier, then settle and audit the counts.
	for i := 0; i < staged; i++ {
		r := f.Records[i%len(f.Records)]
		r.VehicleID = fmt.Sprintf("veh-%02d", i%8)
		if err := e.IngestBatch([]timeseries.Record{r}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().RecordsIn, uint64(2*staged); got != want {
		t.Fatalf("RecordsIn = %d, want %d (lost or duplicated by the barrier race)", got, want)
	}
}

// TestEngineBatchPoolRecyclesUnderChurn pins the batch recycling
// contract: a long single-producer stream must reuse the shard's batch
// buffers rather than allocating one per handoff — fresh batches are
// bounded by the queue capacity, not by the stream length.
func TestEngineBatchPoolRecyclesUnderChurn(t *testing.T) {
	const (
		queueDepth = 8
		batchSize  = 16
		records    = 8192
	)
	e := newEngine(t, Config{
		NewHandler: func(string) (Handler, error) { return &countHandler{}, nil },
		Shards:     1,
		batchSize:  batchSize,
		queueDepth: queueDepth,
	})
	for round := 0; round < 4; round++ {
		for i := 0; i < records/4; i++ {
			r := timeseries.Record{VehicleID: fmt.Sprintf("veh-%02d", i%8)}
			if err := e.IngestBatch([]timeseries.Record{r}, nil); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RecordsIn; got != records {
		t.Fatalf("RecordsIn = %d, want %d", got, records)
	}
	// At most queueDepth+2 buffers are ever live at once (queued,
	// pending, in process), and a fresh one is only allocated when none
	// is free.
	if allocated := e.batchAllocs.Load(); allocated > queueDepth+2 {
		t.Fatalf("allocated %d fresh batches over %d handoffs, want at most %d; batch recycling is not engaging",
			allocated, records/batchSize, queueDepth+2)
	}
}

// TestIngestRecordAllocFree pins admission at zero allocations per
// IngestBatch call once the batch buffers circulate, from one item per
// call — a producer streaming record by record — to a whole frame: the
// refusal value enqueueStaged fills in must stay on the stack when
// nothing is refused, and the staging area comes from the engine's pool.
func TestIngestRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops staging areas on purpose under -race")
	}
	e := newEngine(t, Config{
		NewHandler: func(string) (Handler, error) { return &countHandler{}, nil },
		Shards:     1,
	})
	defer e.Close()
	base := time.Date(2023, 6, 1, 8, 0, 0, 0, time.UTC)
	for _, n := range []int{1, 16, 64, 512} {
		// Time-sorted, as uploads are, though admission does no
		// ordering work.
		recs := make([]timeseries.Record, n)
		for i := range recs {
			recs[i] = timeseries.Record{VehicleID: "veh-00", Time: base.Add(time.Duration(i) * time.Second)}
		}
		for i := 0; i < 64; i++ { // build the handler, warm the free list
			if err := e.IngestBatch(recs, nil); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if err := e.IngestBatch(recs, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("IngestBatch of %d items allocates %v times per admitted call", n, allocs)
		}
	}
}
