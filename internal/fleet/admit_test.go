package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// TestReplayHonoursCordon pins Replay to the same availability fence as
// every other producer: after ExtractVehicle a replayed stream that
// still contains the vehicle must be refused for that vehicle — typed,
// counted — instead of silently re-warming a fresh, diverging handler,
// while every other vehicle is admitted.
func TestReplayHonoursCordon(t *testing.T) {
	f := smallFleet()
	e, err := NewEngine(Config{
		NewConfig:  func(string) (core.Config, error) { return testConfig(), nil },
		Shards:     2,
		batchSize:  8,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	half := len(f.Records) / 2
	first, second := splitEvents(f.Events, f.Records[half].Time)
	if err := e.Replay(f.Records[:half], first); err != nil {
		t.Fatal(err)
	}
	id := f.Records[0].VehicleID
	if _, err := e.ExtractVehicle(id); err != nil {
		t.Fatal(err)
	}

	wantRefused, refusedRecords := 0, 0
	for _, r := range f.Records[half:] {
		if r.VehicleID == id {
			wantRefused++
			refusedRecords++
		}
	}
	for _, ev := range second {
		if ev.VehicleID == id {
			wantRefused++
		}
	}
	if refusedRecords == 0 {
		t.Fatal("extracted vehicle has no records in the second half; test is vacuous")
	}

	var vu *VehicleUnavailableError
	if err := e.Replay(f.Records[half:], second); !errors.As(err, &vu) {
		t.Fatalf("Replay over an extracted vehicle returned %v, want *VehicleUnavailableError", err)
	}
	if vu.VehicleID != id || vu.State != StateMigrating || vu.Refused != wantRefused {
		t.Fatalf("refusal = %+v, want vehicle %s %s with %d items", vu, id, StateMigrating, wantRefused)
	}
	for _, got := range e.VehicleIDs() {
		if got == id {
			t.Fatalf("Replay re-warmed a handler for extracted vehicle %s", id)
		}
	}
	if got, want := e.StatsConsistent().RecordsIn, uint64(len(f.Records)-refusedRecords); got != want {
		t.Fatalf("RecordsIn = %d, want %d (every other vehicle admitted)", got, want)
	}
}

// countedPipeline is a core.Pipeline that counts the stream elements it
// has consumed and carries the counts in its snapshot, so a test can
// tell where in each vehicle's stream a concurrent checkpoint cut. With
// a gate set it parks inside its gateAt-th record — stalling its shard,
// and through backpressure the producer — until the gate closes.
type countedPipeline struct {
	*core.Pipeline
	recs, evs  uint64
	onRestored func(recs, evs uint64)

	gateAt  uint64
	reached chan<- struct{}
	gate    <-chan struct{}
}

func (h *countedPipeline) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	h.recs++
	if h.gate != nil && h.recs == h.gateAt {
		close(h.reached)
		<-h.gate
	}
	return h.Pipeline.HandleRecord(r)
}

func (h *countedPipeline) HandleEvent(ev obd.Event) {
	h.evs++
	h.Pipeline.HandleEvent(ev)
}

func (h *countedPipeline) Snapshot() ([]byte, error) {
	inner, err := h.Pipeline.Snapshot()
	if err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint64(nil, h.recs)
	out = binary.BigEndian.AppendUint64(out, h.evs)
	return append(out, inner...), nil
}

func (h *countedPipeline) Restore(data []byte) error {
	if len(data) < 16 {
		return errors.New("countedPipeline: short snapshot")
	}
	h.recs = binary.BigEndian.Uint64(data)
	h.evs = binary.BigEndian.Uint64(data[8:])
	h.onRestored(h.recs, h.evs)
	return h.Pipeline.Restore(data[16:])
}

// TestReplayBesideCheckpointAndIngest runs what used to be forbidden:
// one goroutine inside Replay while a second takes live checkpoints and
// consistent stats and a third IngestBatches a disjoint vehicle set.
// Every vehicle's alarms must stay Float64bits-equal to core.RunVehicle,
// and a checkpoint cut mid-Replay must resume bit-identically. Run
// under -race this is the gate for Replay sharing the ingest mutexes.
func TestReplayBesideCheckpointAndIngest(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)

	// The first half of the fleet goes through Replay, the second
	// through IngestBatch; each half must land on both shards (FNV puts
	// alternate veh-NN ids on alternate shards), so the two producers
	// and the quiescer all contend for the same ingest mutexes.
	ids := f.AllVehicleIDs()
	replayed := map[string]bool{}
	for i, id := range ids {
		replayed[id] = i < len(ids)/2
	}
	var recsA, recsB []timeseries.Record
	for _, r := range f.Records {
		if replayed[r.VehicleID] {
			recsA = append(recsA, r)
		} else {
			recsB = append(recsB, r)
		}
	}
	var evsA, evsB []obd.Event
	for _, ev := range f.Events {
		if replayed[ev.VehicleID] {
			evsA = append(evsA, ev)
		} else {
			evsB = append(evsB, ev)
		}
	}

	// One replayed vehicle parks a third of the way into its stream.
	// Its shard's queue fills and Replay blocks on it, so a checkpoint
	// requested at that moment is certain to cut mid-Replay.
	gated := recsA[0].VehicleID
	var gatedRecords uint64
	for _, r := range recsA {
		if r.VehicleID == gated {
			gatedRecords++
		}
	}
	reached, gate := make(chan struct{}), make(chan struct{})

	type position struct{ recs, evs uint64 }
	var posMu sync.Mutex
	pos := map[string]position{}
	cfg := Config{
		NewHandler: func(id string) (Handler, error) {
			p, err := core.NewPipeline(id, testConfig())
			if err != nil {
				return nil, err
			}
			h := &countedPipeline{Pipeline: p, onRestored: func(recs, evs uint64) {
				posMu.Lock()
				pos[id] = position{recs, evs}
				posMu.Unlock()
			}}
			if id == gated {
				h.gateAt, h.reached, h.gate = gatedRecords/3, reached, gate
			}
			return h, nil
		},
		Shards:     2,
		batchSize:  16,
		QueueDepth: 4,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	onShard := map[bool]map[int]bool{true: {}, false: {}}
	for _, id := range ids {
		onShard[replayed[id]][e.shardFor(id).index] = true
	}
	if len(onShard[true]) != cfg.Shards || len(onShard[false]) != cfg.Shards {
		t.Fatalf("producers do not share shards: replayed on %v, batched on %v", onShard[true], onShard[false])
	}
	wait := drainAlarms(e)

	var producers sync.WaitGroup
	producers.Add(2)
	go func() {
		defer producers.Done()
		if err := e.Replay(recsA, evsA); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer producers.Done()
		const chunk = 211
		for start := 0; start < len(recsB); start += chunk {
			end := start + chunk
			if end > len(recsB) {
				end = len(recsB)
			}
			// A chunk's events are those up to its last record, so an
			// event still precedes every same-timestamp record.
			n := 0
			for n < len(evsB) && !evsB[n].Time.After(recsB[end-1].Time) {
				n++
			}
			if err := e.IngestBatch(recsB[start:end], evsB[:n]); err != nil {
				t.Error(err)
				return
			}
			evsB = evsB[n:]
		}
		if err := e.IngestBatch(nil, evsB); err != nil {
			t.Error(err)
		}
	}()

	// The checkpointer cuts once mid-Replay — requested the moment the
	// gate opens, while Replay is still backed up behind the stalled
	// shard — then keeps quiescing beside the producers until they end.
	var mid bytes.Buffer
	stop := make(chan struct{})
	checkpointerDone := make(chan struct{})
	go func() {
		defer close(checkpointerDone)
		<-reached
		close(gate)
		if err := e.Checkpoint(&mid); err != nil {
			t.Error(err)
			return
		}
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.StatsConsistent()
			if st.RecordsIn < last {
				t.Errorf("StatsConsistent RecordsIn went backwards: %d after %d", st.RecordsIn, last)
			}
			last = st.RecordsIn
			if err := e.Checkpoint(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	producers.Wait()
	close(stop)
	<-checkpointerDone
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()
	sortAlarms(got)
	requireSameAlarms(t, "live engine", got, want)

	// Resume: every vehicle continues from where the cut left it.
	r, err := NewEngineFromCheckpoint(&mid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitR := drainAlarms(r)
	seenRecs, seenEvs := map[string]uint64{}, map[string]uint64{}
	resumeAt := map[string]timeseries.Record{}
	var remRecs []timeseries.Record
	remReplayed := 0
	for _, rec := range f.Records {
		if seenRecs[rec.VehicleID]++; seenRecs[rec.VehicleID] > pos[rec.VehicleID].recs {
			if _, ok := resumeAt[rec.VehicleID]; !ok {
				resumeAt[rec.VehicleID] = rec
			}
			remRecs = append(remRecs, rec)
			if replayed[rec.VehicleID] {
				remReplayed++
			}
		}
	}
	var remEvs []obd.Event
	for _, ev := range f.Events {
		if seenEvs[ev.VehicleID]++; seenEvs[ev.VehicleID] > pos[ev.VehicleID].evs {
			remEvs = append(remEvs, ev)
		}
	}
	if remReplayed == 0 || remReplayed == len(recsA) {
		t.Fatalf("checkpoint cut left %d of Replay's %d records to resume; the resume check is vacuous", remReplayed, len(recsA))
	}
	if err := r.Replay(remRecs, remEvs); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	resumed := waitR()
	sortAlarms(resumed)
	var wantResumed []detector.Alarm
	for _, a := range want {
		if first, ok := resumeAt[a.VehicleID]; ok && !a.Time.Before(first.Time) {
			wantResumed = append(wantResumed, a)
		}
	}
	requireSameAlarms(t, "resumed from mid-Replay checkpoint", resumed, wantResumed)
}
