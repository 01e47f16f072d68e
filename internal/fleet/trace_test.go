package fleet

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// tracedTestID is the producer trace ID every traced test batch
// carries, so journal entries can be checked for faithful propagation.
const tracedTestID = 0x7ace

// ingestTraced feeds a chronological stream through IngestBatchCtx in
// fixed-size chunks with one fresh BatchCtx per chunk — the shape the
// serve wire path produces, one context per decoded frame. Events ride
// with the chunk covering their timestamp (Merged's events-first
// order, as in splitEvents). Returns the batch contexts, in order.
func ingestTraced(t *testing.T, e *Engine, records []timeseries.Record, events []obd.Event, chunk int) []*obs.BatchCtx {
	t.Helper()
	var batches []*obs.BatchCtx
	remaining := events
	for start := 0; start < len(records); start += chunk {
		end := start + chunk
		var evChunk []obd.Event
		if end >= len(records) {
			end = len(records)
			evChunk, remaining = remaining, nil
		} else {
			evChunk, remaining = splitEvents(remaining, records[end].Time)
		}
		bc := &obs.BatchCtx{BatchID: uint64(len(batches) + 1), TraceID: tracedTestID, Arrival: time.Now()}
		batches = append(batches, bc)
		if err := e.IngestBatchCtx(records[start:end], evChunk, bc); err != nil {
			t.Fatal(err)
		}
	}
	return batches
}

// checkProvenance requires every journal entry in the tail to carry
// the batch context the traced ingest attached: a batch ID, the test's
// trace ID, a wall-clock arrival, and a positive end-to-end latency.
func checkProvenance(t *testing.T, j *obs.Journal) {
	t.Helper()
	for _, e := range j.Last(16) {
		if e.BatchID == 0 || e.TraceID != tracedTestID {
			t.Fatalf("journal entry missing batch context: batch=%d trace=%#x", e.BatchID, e.TraceID)
		}
		if e.ArrivalTime.IsZero() || e.E2ELatencyS <= 0 {
			t.Fatalf("journal entry missing latency provenance: arrival=%v e2e=%v", e.ArrivalTime, e.E2ELatencyS)
		}
		if e.QueueWaitS < 0 {
			t.Fatalf("journal entry has negative queue wait: %v", e.QueueWaitS)
		}
	}
}

// promCounter extracts one untyped counter value from an exposition.
func promCounter(t *testing.T, text, name string) uint64 {
	t.Helper()
	m := regexp.MustCompile(name + ` ([0-9]+)\b`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("exposition missing %s", name)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEngineTracedBitIdentity is the provenance layer's identity gate:
// for every paper technique × transform grid cell, an engine fed the
// stream through the traced batch path (IngestBatchCtx, one BatchCtx
// per chunk, full observation) must emit exactly the alarms an
// untraced Replay emits — provenance may annotate alarms, never change
// them — while every journaled alarm carries its batch context and the
// pdm_e2e_* counters account for every traced batch and alarm.
func TestEngineTracedBitIdentity(t *testing.T) {
	records, events := syntheticStream(2, 150)

	for _, tech := range paperTechniques() {
		for _, kind := range transform.AllKinds() {
			tech, kind := tech, kind
			t.Run(fmt.Sprintf("%s_%s", tech.name, kind), func(t *testing.T) {
				run := func(o *obs.Observer, traced bool) ([]detector.Alarm, int) {
					cfg := Config{NewConfig: gridConfig(tech, kind, nil), Shards: 3, batchSize: 16, Observer: o}
					if o != nil {
						cfg.NewConfig = observedGrid(cfg.NewConfig, o)
					}
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					wait := drainAlarms(e)
					batches := 0
					if traced {
						batches = len(ingestTraced(t, e, records, events, 48))
					} else if err := e.Replay(records, events); err != nil {
						t.Fatal(err)
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					a := wait()
					sortAlarms(a)
					return a, batches
				}

				plain, _ := run(nil, false)
				reg := obs.NewRegistry()
				j := obs.NewJournal(128)
				traced, batches := run(obs.NewObserver(reg, obs.ObserverConfig{Journal: j}), true)

				requireSameAlarms(t, "traced", traced, plain)
				checkProvenance(t, j)

				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Fatal(err)
				}
				text := buf.String()
				if got := promCounter(t, text, "pdm_e2e_traced_batches_total"); got != uint64(batches) {
					t.Fatalf("traced batches counter = %d, want %d", got, batches)
				}
				if got := promCounter(t, text, "pdm_e2e_traced_alarms_total"); got != uint64(len(traced)) {
					t.Fatalf("traced alarms counter = %d, want %d", got, len(traced))
				}
				if got := promCounter(t, text, "pdm_e2e_alarm_latency_seconds_count"); got != uint64(len(traced)) {
					t.Fatalf("alarm latency observations = %d, want %d", got, len(traced))
				}
			})
		}
	}
}

// TestVehicleHandoffDrainGateTraced is the drain gate with provenance
// on: source and target engines both ingest through the traced batch
// path while every vehicle is drained source→target mid-stream through
// the state codec. The combined alarms must stay bit-identical to an
// uninterrupted untraced Replay, and alarms journaled on the adopting
// engine must still carry their ingest batch context — migration does
// not sever provenance.
func TestVehicleHandoffDrainGateTraced(t *testing.T) {
	const (
		vehicles   = 2
		perVehicle = 200
		split      = 263
	)
	records, events := syntheticStream(vehicles, perVehicle)
	evFirst, evSecond := splitEvents(events, records[split].Time)

	for _, tech := range paperTechniques() {
		for _, kind := range transform.AllKinds() {
			tech, kind := tech, kind
			t.Run(fmt.Sprintf("%s_%s", tech.name, kind), func(t *testing.T) {
				eRef, err := NewEngine(Config{NewConfig: gridConfig(tech, kind, nil), Shards: 3, batchSize: 16})
				if err != nil {
					t.Fatal(err)
				}
				waitRef := drainAlarms(eRef)
				if err := eRef.Replay(records, events); err != nil {
					t.Fatal(err)
				}
				if err := eRef.Close(); err != nil {
					t.Fatal(err)
				}
				refAlarms := waitRef()
				sortAlarms(refAlarms)

				newObserved := func(shards int) (*Engine, *obs.Journal) {
					j := obs.NewJournal(128)
					o := obs.NewObserver(obs.NewRegistry(), obs.ObserverConfig{Journal: j})
					e, err := NewEngine(Config{
						NewConfig: observedGrid(gridConfig(tech, kind, nil), o),
						Shards:    shards, batchSize: 16, Observer: o,
					})
					if err != nil {
						t.Fatal(err)
					}
					return e, j
				}

				src, _ := newObserved(3)
				waitSrc := drainAlarms(src)
				ingestTraced(t, src, records[:split], evFirst, 48)

				dst, dstJournal := newObserved(1)
				waitDst := drainAlarms(dst)

				for _, id := range src.VehicleIDs() {
					vs, err := src.ExtractVehicle(id)
					if err != nil {
						t.Fatalf("ExtractVehicle(%s): %v", id, err)
					}
					decoded, err := DecodeVehicleState(vs.Encode())
					if err != nil {
						t.Fatalf("codec round trip %s: %v", id, err)
					}
					if err := dst.AdoptVehicle(decoded); err != nil {
						t.Fatalf("AdoptVehicle(%s): %v", id, err)
					}
				}
				if err := src.Close(); err != nil {
					t.Fatal(err)
				}
				srcAlarms := waitSrc()

				ingestTraced(t, dst, records[split:], evSecond, 48)
				if err := dst.Close(); err != nil {
					t.Fatal(err)
				}
				dstAlarms := waitDst()

				got := append(append([]detector.Alarm{}, srcAlarms...), dstAlarms...)
				sortAlarms(got)
				requireSameAlarms(t, fmt.Sprintf("traced drain (%d+%d alarms)", len(srcAlarms), len(dstAlarms)), got, refAlarms)
				if len(dstAlarms) > 0 {
					checkProvenance(t, dstJournal)
				}
			})
		}
	}
}
