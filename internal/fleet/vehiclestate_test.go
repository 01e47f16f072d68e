package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// TestVehicleStateCodec pins the per-vehicle payload format: encode →
// decode round-trips exactly, and a successfully decoded payload
// re-encodes to the same bytes (the codec is canonical — there is one
// representation per state, which is what lets a checkpoint section
// and a wire handoff frame share it).
func TestVehicleStateCodec(t *testing.T) {
	cases := []VehicleState{
		{ID: "veh-00", Snapshot: []byte{1, 2, 3, 0xff}},
		{ID: "v", Snapshot: nil},
		{ID: "", Snapshot: []byte("snap")},
	}
	for _, vs := range cases {
		enc := vs.Encode()
		got, err := DecodeVehicleState(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", vs.ID, err)
		}
		if got.ID != vs.ID || !bytes.Equal(got.Snapshot, vs.Snapshot) {
			t.Errorf("round trip %q: got %q/%x", vs.ID, got.ID, got.Snapshot)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Errorf("vehicle %q: re-encode not canonical", vs.ID)
		}
	}
	for _, bad := range [][]byte{
		{},        // truncated length prefix
		{1, 2, 3}, // short read
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // hostile ID length
		append(cases[0].Encode(), 0xAA),                  // trailing garbage
	} {
		if _, err := DecodeVehicleState(bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("decode(%x): err = %v, want ErrBadCheckpoint", bad, err)
		}
	}
}

// FuzzVehicleStateRoundTrip fuzzes the per-vehicle codec with
// untrusted bytes — the payload arrives off the network inside NVWIRE1
// handoff frames, so it must reject corruption with typed errors,
// never panic or over-read, and every accepted payload must be
// canonical (re-encode to the input bytes).
func FuzzVehicleStateRoundTrip(f *testing.F) {
	seed := VehicleState{ID: "veh-07", Snapshot: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	f.Add(seed.Encode())
	f.Add([]byte{})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := DecodeVehicleState(data)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(vs.Encode(), data) {
			t.Fatalf("accepted payload is not canonical: %x", data)
		}
	})
}

// TestCordonRefusesIngest covers the availability fence on IngestBatch
// with one record, one event and a mixed batch: a cordoned vehicle's
// items are refused with the typed, retryable error while other
// vehicles flow, and Uncordon restores service.
func TestCordonRefusesIngest(t *testing.T) {
	f := smallFleet()
	e := newEngine(t, Config{NewConfig: newTestConfig, Shards: 2, batchSize: 4, DropAlarms: true})
	defer e.Close()

	recs := f.Records
	a, b := recs[0].VehicleID, ""
	for _, r := range recs {
		if r.VehicleID != a {
			b = r.VehicleID
			break
		}
	}
	if err := e.IngestBatch(recs[:1], nil); err != nil {
		t.Fatal(err)
	}

	e.Cordon(a)
	if st := e.CordonState(a); st != StateCordoned {
		t.Fatalf("CordonState = %q, want %q", st, StateCordoned)
	}
	var vu *VehicleUnavailableError
	if err := e.IngestBatch(recs[:1], nil); !errors.As(err, &vu) || vu.State != StateCordoned || vu.Refused != 1 {
		t.Fatalf("one-record IngestBatch on cordoned vehicle: %v", err)
	}
	ev := []obd.Event{{VehicleID: a, Time: recs[0].Time, Type: obd.EventService}}
	if err := e.IngestBatch(nil, ev); !errors.As(err, &vu) || vu.Refused != 1 {
		t.Fatalf("one-event IngestBatch on cordoned vehicle: %v", err)
	}

	// Batch refusal is all-or-nothing per vehicle, partial per call:
	// vehicle b's records are admitted, vehicle a's are refused and
	// counted.
	var batch []timeseries.Record
	var wantRefused int
	for _, r := range recs[:40] {
		if r.VehicleID == a || r.VehicleID == b {
			batch = append(batch, r)
			if r.VehicleID == a {
				wantRefused++
			}
		}
	}
	vu = nil
	if err := e.IngestBatch(batch, nil); !errors.As(err, &vu) {
		t.Fatalf("IngestBatch with cordoned vehicle: %v", err)
	}
	if vu.VehicleID != a || vu.State != StateCordoned || vu.Refused != wantRefused {
		t.Fatalf("refusal = %+v, want vehicle %s cordoned with %d items", vu, a, wantRefused)
	}

	e.Uncordon(a)
	if st := e.CordonState(a); st != "" {
		t.Fatalf("CordonState after Uncordon = %q", st)
	}
	if err := e.IngestBatch(batch, nil); err != nil {
		t.Fatalf("IngestBatch after Uncordon: %v", err)
	}
}

// TestExtractAdoptErrors covers the typed failure surface of the two
// handoff verbs.
func TestExtractAdoptErrors(t *testing.T) {
	e := newEngine(t, Config{NewConfig: newTestConfig, Shards: 2, batchSize: 4, DropAlarms: true})

	if _, err := e.ExtractVehicle("nope"); !errors.Is(err, ErrUnknownVehicle) {
		t.Fatalf("extract unknown: %v", err)
	}
	// A failed extraction must not leave the vehicle fenced.
	if st := e.CordonState("nope"); st != "" {
		t.Fatalf("failed extract left cordon %q", st)
	}

	recs := smallFleet().Records
	id := recs[0].VehicleID
	for _, r := range recs[:20] {
		if r.VehicleID == id {
			if err := e.IngestBatch([]timeseries.Record{r}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	vs, err := e.ExtractVehicle(id)
	if err != nil {
		t.Fatalf("ExtractVehicle: %v", err)
	}
	if st := e.CordonState(id); st != StateMigrating {
		t.Fatalf("post-extract CordonState = %q, want %q", st, StateMigrating)
	}
	var vu *VehicleUnavailableError
	if err := e.IngestBatch(recs[:1], nil); recs[0].VehicleID != id || !errors.As(err, &vu) || vu.State != StateMigrating {
		t.Fatalf("ingest mid-handoff: %v", err)
	}
	if err := e.AdoptVehicle(vs); err != nil {
		t.Fatalf("AdoptVehicle (re-adopt): %v", err)
	}
	if st := e.CordonState(id); st != "" {
		t.Fatalf("adopt did not lift cordon: %q", st)
	}
	if err := e.AdoptVehicle(vs); !errors.Is(err, ErrVehicleExists) {
		t.Fatalf("double adopt: %v", err)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed engine: both verbs need a running engine.
	if _, err := e.ExtractVehicle(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("extract after close: %v", err)
	}
	if err := e.AdoptVehicle(vs); !errors.Is(err, ErrClosed) {
		t.Fatalf("adopt after close: %v", err)
	}
}

// TestVehicleHandoffDrainGate is the migration half of the drain gate:
// for every paper technique × transform, drain a LIVE engine mid-stream
// vehicle by vehicle (each extraction quiescing only the owning shard),
// push every VehicleState through the canonical byte codec, adopt on a
// second live engine with a different shard count, feed the rest there,
// and require the merged alarm stream and every per-sample
// score/threshold Float64bits-identical to an uninterrupted
// single-engine run. It runs twice per cell: through Replay, and with
// both engines observed and fed through the traced batch path, where
// each engine's journal must also carry every alarm's batch context —
// migration does not sever provenance.
func TestVehicleHandoffDrainGate(t *testing.T) {
	const (
		vehicles   = 2
		perVehicle = 200
		split      = 263
	)
	records, events := syntheticStream(vehicles, perVehicle)
	evFirst, evSecond := splitEvents(events, records[split].Time)

	for _, tech := range paperTechniques() {
		for _, kind := range transform.AllKinds() {
			t.Run(fmt.Sprintf("%s_%s", tech.name, kind), func(t *testing.T) {
				refTraces := newTraceSet()
				refAlarms := replayAlarms(t, Config{NewConfig: gridConfig(tech, kind, refTraces), Shards: 3, batchSize: 16}, records, events)
				for _, traced := range []bool{false, true} {
					t.Run(map[bool]string{false: "replay", true: "traced"}[traced], func(t *testing.T) {
						// Source and target share one trace set: a migrated
						// vehicle keeps appending to the same per-vehicle
						// trace, so the combined rows must equal the
						// reference's.
						liveTraces := newTraceSet()
						type run struct {
							e       *Engine
							wait    func() []detector.Alarm
							reg     *obs.Registry
							j       *obs.Journal
							origin  map[recKey]*obs.BatchCtx
							batches int
						}
						start := func(shards int) *run {
							l := &run{}
							cfg := Config{NewConfig: gridConfig(tech, kind, liveTraces), Shards: shards, batchSize: 16}
							if traced {
								l.reg, l.j = obs.NewRegistry(), obs.NewJournal(1<<14)
								o := obs.NewObserver(l.reg, obs.ObserverConfig{Journal: l.j})
								cfg.NewConfig, cfg.Observer = observedGrid(cfg.NewConfig, o), o
							}
							l.e = newEngine(t, cfg)
							l.wait = drainAlarms(l.e)
							return l
						}
						feed := func(l *run, recs []timeseries.Record, evs []obd.Event) {
							if traced {
								l.origin, l.batches = ingestTraced(t, l.e, recs, evs, 48, 4)
							} else if err := l.e.Replay(recs, evs); err != nil {
								t.Fatal(err)
							}
						}
						finish := func(l *run) []detector.Alarm {
							if err := l.e.Close(); err != nil {
								t.Fatal(err)
							}
							a := l.wait()
							if traced {
								checkJournal(t, l.reg, l.j, tech.name, kind.String(), len(a), l.origin, l.batches)
							}
							return a
						}

						src := start(3)
						feed(src, records[:split], evFirst)
						dst := start(1)
						ids := src.e.VehicleIDs()
						if len(ids) != vehicles {
							t.Fatalf("VehicleIDs = %v, want %d vehicles", ids, vehicles)
						}
						for _, id := range ids {
							vs, err := src.e.ExtractVehicle(id)
							if err != nil {
								t.Fatalf("ExtractVehicle(%s): %v", id, err)
							}
							decoded, err := DecodeVehicleState(vs.Encode())
							if err != nil {
								t.Fatalf("codec round trip %s: %v", id, err)
							}
							if err := dst.e.AdoptVehicle(decoded); err != nil {
								t.Fatalf("AdoptVehicle(%s): %v", id, err)
							}
							// The source now refuses the moved vehicle instead
							// of silently re-warming a fresh handler.
							var vu *VehicleUnavailableError
							if err := src.e.IngestBatch([]timeseries.Record{{VehicleID: id}}, nil); !errors.As(err, &vu) {
								t.Fatalf("source ingest after drain of %s: %v", id, err)
							}
						}
						srcAlarms := finish(src)
						feed(dst, records[split:], evSecond)
						dstAlarms := finish(dst)

						got := append(append([]detector.Alarm{}, srcAlarms...), dstAlarms...)
						sortAlarms(got)
						requireSameAlarms(t, fmt.Sprintf("drained (%d+%d alarms)", len(srcAlarms), len(dstAlarms)), got, refAlarms)
						for id, ref := range refTraces.m {
							live := liveTraces.m[id]
							if live == nil {
								t.Fatalf("vehicle %s missing from drained run", id)
							}
							if len(live.Scores) != len(ref.Scores) {
								t.Fatalf("vehicle %s: %d samples vs %d uninterrupted", id, len(live.Scores), len(ref.Scores))
							}
							if !bitEqualRows(live.Scores, ref.Scores) || !bitEqualRows(live.Thresholds, ref.Thresholds) {
								t.Errorf("vehicle %s: migrated scores/thresholds diverge", id)
							}
						}
					})
				}
			})
		}
	}
}

// TestConcurrentMigrationIngest hammers IngestBatch from one producer
// per vehicle while a migrator bounces every vehicle between two
// engines. The availability fence plus per-vehicle all-or-nothing
// batch refusal must guarantee exactly-once processing: no record is
// lost, none is duplicated, and alarms and per-sample scores are
// bit-identical to an uninterrupted single-engine run. Run under
// `make race-fleet` this doubles as the fence's race gate.
func TestConcurrentMigrationIngest(t *testing.T) {
	const (
		vehicles   = 4
		perVehicle = 240
		chunk      = 9
		rounds     = 8
	)
	records, events := syntheticStream(vehicles, perVehicle)

	tech := paperTechniques()[0] // closest-pair: cheap, alarm-dense
	kind := transform.AllKinds()[0]

	refTraces := newTraceSet()
	refAlarms := replayAlarms(t, Config{NewConfig: gridConfig(tech, kind, refTraces), Shards: 2, batchSize: 16}, records, events)

	liveTraces := newTraceSet()
	mk := func(shards int) *Engine {
		e := newEngine(t, Config{NewConfig: gridConfig(tech, kind, liveTraces), Shards: shards, batchSize: 8})
		return e
	}
	eA, eB := mk(2), mk(3)
	waitA, waitB := drainAlarms(eA), drainAlarms(eB)

	// Per-vehicle streams, chronological, the vehicle's service event
	// attached to the chunk that covers its timestamp.
	type stream struct {
		recs []timeseries.Record
		evs  []obd.Event
	}
	perVeh := map[string]*stream{}
	for _, r := range records {
		if perVeh[r.VehicleID] == nil {
			perVeh[r.VehicleID] = &stream{}
		}
		perVeh[r.VehicleID].recs = append(perVeh[r.VehicleID].recs, r)
	}
	for _, ev := range events {
		perVeh[ev.VehicleID].evs = append(perVeh[ev.VehicleID].evs, ev)
	}

	// owner tracks which engine a producer should try first; the fence
	// is what actually guarantees exactly-once, the table only steers.
	var ownMu sync.Mutex
	owner := map[string]*Engine{}
	for id := range perVeh {
		owner[id] = eA
		// Pre-fence on the engine that does not own the vehicle yet, so
		// a misrouted batch is refused instead of growing a fresh
		// diverging handler.
		eB.Cordon(id)
	}
	getOwner := func(id string) *Engine {
		ownMu.Lock()
		defer ownMu.Unlock()
		return owner[id]
	}

	var wg sync.WaitGroup
	for id, st := range perVeh {
		id, st := id, st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(st.recs); i += chunk {
				j := i + chunk
				if j > len(st.recs) {
					j = len(st.recs)
				}
				var evs []obd.Event
				for _, ev := range st.evs {
					if !ev.Time.Before(st.recs[i].Time) && (j == len(st.recs) || ev.Time.Before(st.recs[j].Time)) {
						evs = append(evs, ev)
					}
				}
				for attempt := 0; ; attempt++ {
					err := getOwner(id).IngestBatch(st.recs[i:j], evs)
					if err == nil {
						break
					}
					var vu *VehicleUnavailableError
					if !errors.As(err, &vu) {
						t.Errorf("vehicle %s: IngestBatch: %v", id, err)
						return
					}
					if attempt > 1_000_000 {
						t.Errorf("vehicle %s: refused forever", id)
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}

	// The migrator bounces every vehicle A→B→A… while producers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for id := range perVeh {
				from := getOwner(id)
				to := eA
				if from == eA {
					to = eB
				}
				vs, err := from.ExtractVehicle(id)
				if err != nil {
					if errors.Is(err, ErrUnknownVehicle) {
						continue // producer has not materialised it yet
					}
					t.Errorf("extract %s: %v", id, err)
					return
				}
				if err := to.AdoptVehicle(vs); err != nil {
					t.Errorf("adopt %s: %v", id, err)
					return
				}
				ownMu.Lock()
				owner[id] = to
				ownMu.Unlock()
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if err := eA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eB.Close(); err != nil {
		t.Fatal(err)
	}
	alarms := append(waitA(), waitB()...)
	sortAlarms(alarms)

	stA, stB := eA.Stats(), eB.Stats()
	if got := stA.RecordsIn + stB.RecordsIn; got != uint64(len(records)) {
		t.Errorf("records processed = %d (A %d + B %d), want %d — lost or duplicated",
			got, stA.RecordsIn, stB.RecordsIn, len(records))
	}
	if got := stA.EventsIn + stB.EventsIn; got != uint64(len(events)) {
		t.Errorf("events processed = %d, want %d", got, len(events))
	}
	if stA.Drops+stB.Drops != 0 {
		t.Errorf("drops = %d, want 0", stA.Drops+stB.Drops)
	}
	requireSameAlarms(t, "migrated", alarms, refAlarms)
	for id, ref := range refTraces.m {
		live := liveTraces.m[id]
		if live == nil {
			t.Fatalf("vehicle %s missing from migrated run", id)
		}
		if len(live.Scores) != len(ref.Scores) || !bitEqualRows(live.Scores, ref.Scores) {
			t.Errorf("vehicle %s: migrated per-sample scores diverge (%d vs %d rows)",
				id, len(live.Scores), len(ref.Scores))
		}
	}
}
