package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/timeseries"
)

// TestIngestBatchEmptyAndClosed checks the trivial edges: an empty
// batch is a no-op on a live engine, and any batch after Close errors
// cleanly with ErrClosed.
func TestIngestBatchEmptyAndClosed(t *testing.T) {
	e := newEngine(t, Config{
		NewHandler: func(string) (Handler, error) { return &countHandler{}, nil },
		Shards:     2,
	})
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

// TestIngestBatchDuringCheckpointBarrier races IngestBatch against a
// live checkpoint. The barrier holds every ingest mutex while shards
// are parked; a concurrent batch must land entirely before the barrier
// or entirely after the release, and no record may be lost or
// double-counted.
func TestIngestBatchDuringCheckpointBarrier(t *testing.T) {
	e := newEngine(t, Config{
		NewConfig: newTestConfig,
		Shards:    2,
		batchSize: 64, // large: batches below stay pending until flushed
	})
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
