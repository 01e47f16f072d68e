package fleet

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
	"github.com/navarchos/pdm/internal/wire"
)

// identityStream is a stream, the per-vehicle factory its pipelines are
// built from, and the labels its journal entries must carry.
type identityStream struct {
	records              []timeseries.Record
	events               []obd.Event
	newConfig            func(string) (core.Config, error)
	vehicles             int
	technique, transform string
}

// identityCase is one engine configuration an admission path runs:
// shard count, batch size and, for the chunked paths, items per call
// (or per NVWIRE1 frame).
type identityCase struct {
	name                 string
	stream               *identityStream
	shards, batch, chunk int
}

// admitPath feeds a case's stream into a live engine and returns the
// batch context each record arrived with (nil for untraced paths) and
// how many traced batches it admitted.
type admitPath func(t *testing.T, e *Engine, c identityCase) (map[recKey]*obs.BatchCtx, int)

// TestEngineMatchesSerialReplay is the engine's determinism guarantee,
// one row per admission path, each with the observer off and on: at
// every shard count, batch size and call or frame size, the alarms are
// exactly those of core.RunVehicle replaying each vehicle alone, the
// engine's counters account for every item, and an observed engine
// journals every alarm with its technique, transform and — on the traced
// path only, and for exactly the batch its record arrived in —
// provenance, which the pdm_e2e_* counters match.
func TestEngineMatchesSerialReplay(t *testing.T) {
	f := smallFleet()
	small := &identityStream{f.Records, f.Events, newTestConfig, len(f.AllVehicleIDs()), "closest-pair", "correlation"}
	var grid []identityCase
	records, events := syntheticStream(2, 150)
	for _, tech := range paperTechniques() {
		for _, kind := range transform.AllKinds() {
			s := &identityStream{records, events, gridConfig(tech, kind, nil), 2, tech.name, kind.String()}
			grid = append(grid, identityCase{fmt.Sprintf("%s_%s", tech.name, kind), s, 3, 16, 48})
		}
	}
	sweep := func(shards, batches, chunks []int) []identityCase {
		var out []identityCase
		for _, n := range shards {
			for _, b := range batches {
				for _, c := range chunks {
					name := fmt.Sprintf("shards=%d,batch=%d", n, b)
					if c > 0 {
						name += fmt.Sprintf(",chunk=%d", c)
					}
					out = append(out, identityCase{name, small, n, b, c})
				}
			}
		}
		return out
	}
	replay := func(t *testing.T, e *Engine, c identityCase) (map[recKey]*obs.BatchCtx, int) {
		if err := e.Replay(c.stream.records, c.stream.events); err != nil {
			t.Fatal(err)
		}
		return nil, 0
	}
	rows := []struct {
		name  string
		cases []identityCase
		admit admitPath
	}{
		{"replay", sweep([]int{1, 2, 3, 8}, []int{1, 7, 64}, []int{0}), replay},
		{"replay-grid", grid, replay},
		// The merged stream cut at arbitrary points, so calls span shard
		// boundaries and split record/event ties.
		{"ingest-batch", sweep([]int{1, 2, 3}, []int{16}, []int{1, 37, 1024}), func(t *testing.T, e *Engine, c identityCase) (map[recKey]*obs.BatchCtx, int) {
			var recs []timeseries.Record
			var evs []obd.Event
			admit := func(full bool) error {
				if full && len(recs)+len(evs) < c.chunk {
					return nil
				}
				err := e.IngestBatch(recs, evs)
				recs, evs = recs[:0], evs[:0]
				return err
			}
			err := core.Merged("", c.stream.records, c.stream.events,
				func(ev obd.Event) error { evs = append(evs, ev); return admit(true) },
				func(r timeseries.Record) error { recs = append(recs, r); return admit(true) })
			if err == nil {
				err = admit(false)
			}
			if err != nil {
				t.Fatal(err)
			}
			return nil, 0
		}},
		// NVWIRE1 frames, stream-decoded straight into IngestBatch.
		{"wire", sweep([]int{1, 2}, []int{16}, []int{256}), func(t *testing.T, e *Engine, c identityCase) (map[recKey]*obs.BatchCtx, int) {
			frames, n, err := wire.EncodeStream(nil, c.stream.records, c.stream.events, c.chunk)
			if err != nil {
				t.Fatal(err)
			}
			var dec wire.Decoder
			decoded, err := dec.DecodeStream(bytes.NewReader(frames), wire.SinkFunc(func(b *wire.Batch) error {
				return e.IngestBatch(b.Records, b.Events)
			}))
			if err != nil || n < 2 || decoded != n {
				t.Fatalf("decoded %d of %d frames (%v); the multi-frame path needs at least 2", decoded, n, err)
			}
			return nil, 0
		}},
		// IngestBatchCtx, one BatchCtx per chunk as serve attaches one per
		// frame, with every fourth chunk untraced.
		{"traced-grid", grid, func(t *testing.T, e *Engine, c identityCase) (map[recKey]*obs.BatchCtx, int) {
			return ingestTraced(t, e, c.stream.records, c.stream.events, c.chunk, 4)
		}},
	}

	refs := map[*identityStream][]detector.Alarm{}
	for _, row := range rows {
		for _, observed := range []bool{false, true} {
			for _, c := range row.cases {
				t.Run(fmt.Sprintf("%s/observer=%v/%s", row.name, observed, c.name), func(t *testing.T) {
					s := c.stream
					want, ok := refs[s]
					if !ok {
						want = serialAlarms(t, s.records, s.events, s.newConfig)
						refs[s] = want
					}
					if len(want) == 0 && s == small {
						t.Fatal("the small fleet raised no alarms; the identity check is vacuous")
					}
					cfg := Config{NewConfig: s.newConfig, Shards: c.shards, batchSize: c.batch}
					var reg *obs.Registry
					var j *obs.Journal
					if observed {
						reg, j = obs.NewRegistry(), obs.NewJournal(1<<14)
						o := obs.NewObserver(reg, obs.ObserverConfig{Journal: j})
						cfg.NewConfig, cfg.Observer = observedGrid(s.newConfig, o), o
					}
					e := newEngine(t, cfg)
					wait := drainAlarms(e)
					origin, batches := row.admit(t, e, c)
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					got := wait()
					sortAlarms(got)
					requireSameAlarms(t, row.name, got, want)
					st := e.Stats()
					if st.RecordsIn != uint64(len(s.records)) || st.EventsIn != uint64(len(s.events)) ||
						st.Alarms != uint64(len(want)) || st.Vehicles != s.vehicles || st.SamplesScored == 0 && len(want) > 0 || st.Drops != 0 {
						t.Errorf("stats %+v; want %d records, %d events, %d alarms, %d vehicles, samples scored and no drops",
							st, len(s.records), len(s.events), len(want), s.vehicles)
					}
					if observed {
						checkJournal(t, reg, j, s.technique, s.transform, len(got), origin, batches)
					}
				})
			}
		}
	}
}

// newTestConfig is testConfig as an engine factory.
func newTestConfig(string) (core.Config, error) { return testConfig(), nil }

// newEngine starts an engine or fails the test.
func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// replayAlarms replays a stream through a fresh engine, closes it and
// returns its alarms, sorted.
func replayAlarms(t *testing.T, cfg Config, records []timeseries.Record, events []obd.Event) []detector.Alarm {
	t.Helper()
	e := newEngine(t, cfg)
	wait := drainAlarms(e)
	if err := e.Replay(records, events); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	out := wait()
	sortAlarms(out)
	return out
}

// serialAlarms replays every vehicle alone through core.RunVehicle and
// returns the alarms, sorted.
func serialAlarms(t *testing.T, records []timeseries.Record, events []obd.Event, newConfig func(string) (core.Config, error)) []detector.Alarm {
	t.Helper()
	ids := map[string]bool{}
	for _, r := range records {
		ids[r.VehicleID] = true
	}
	var out []detector.Alarm
	for id := range ids {
		a, err := core.RunVehicle(id, records, events, func() core.Config {
			cfg, err := newConfig(id)
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a...)
	}
	sortAlarms(out)
	return out
}

// tracedTestID is the producer trace ID every traced test batch
// carries, so journal entries can be checked for faithful propagation.
const tracedTestID = 0x7ace

// recKey names a record: a vehicle's records have distinct times.
type recKey struct {
	id string
	t  int64
}

// ingestTraced feeds a chronological stream through IngestBatchCtx in
// fixed-size chunks with one fresh BatchCtx per chunk — the shape the
// serve wire path produces, one context per decoded frame — except that
// every untracedEvery-th chunk (none when it is 0) goes in untraced, so
// traced and untraced records reach the same handlers. Events ride with
// the chunk covering their timestamp (Merged's events-first order, as in
// splitEvents). It returns the batch context each record arrived with
// and how many traced batches there were.
func ingestTraced(t *testing.T, e *Engine, records []timeseries.Record, events []obd.Event, chunk, untracedEvery int) (map[recKey]*obs.BatchCtx, int) {
	t.Helper()
	origin := map[recKey]*obs.BatchCtx{}
	traced := 0
	remaining := events
	for i, start := 0, 0; start < len(records); i, start = i+1, start+chunk {
		end := start + chunk
		var evChunk []obd.Event
		if end >= len(records) {
			end = len(records)
			evChunk, remaining = remaining, nil
		} else {
			evChunk, remaining = splitEvents(remaining, records[end].Time)
		}
		var bc *obs.BatchCtx
		if untracedEvery == 0 || i%untracedEvery != untracedEvery-1 {
			traced++
			bc = &obs.BatchCtx{BatchID: uint64(i + 1), TraceID: tracedTestID, Arrival: time.Now()}
		}
		for _, r := range records[start:end] {
			origin[recKey{r.VehicleID, r.Time.UnixNano()}] = bc
		}
		if err := e.IngestBatchCtx(records[start:end], evChunk, bc); err != nil {
			t.Fatal(err)
		}
	}
	return origin, traced
}

// checkJournal requires an observed engine's journal to hold each of
// its alarms once, labelled with the technique and transform, carrying
// the batch context its record arrived with (origin; none when the
// record came untraced), and the pdm_e2e_* counters to account for every
// traced batch and traced alarm.
func checkJournal(t *testing.T, reg *obs.Registry, j *obs.Journal, technique, transform string, alarms int, origin map[recKey]*obs.BatchCtx, batches int) {
	t.Helper()
	entries := j.Last(0)
	if j.Total() != uint64(alarms) || len(entries) != alarms {
		t.Fatalf("journal holds %d of %d entries, want %d alarms", len(entries), j.Total(), alarms)
	}
	traced := 0
	for _, a := range entries {
		if a.Technique != technique || a.Transform != transform {
			t.Fatalf("journal entry mislabelled: %+v (want %s/%s)", a, technique, transform)
		}
		bc := origin[recKey{a.VehicleID, a.Time.UnixNano()}]
		if bc == nil {
			if a.BatchID != 0 || a.TraceID != 0 || !a.ArrivalTime.IsZero() || a.E2ELatencyS != 0 {
				t.Fatalf("untraced alarm at %v for %s carries batch %d (trace %#x)", a.Time, a.VehicleID, a.BatchID, a.TraceID)
			}
			continue
		}
		traced++
		if a.BatchID != bc.BatchID || a.TraceID != bc.TraceID || !a.ArrivalTime.Equal(bc.Arrival) {
			t.Fatalf("alarm at %v for %s carries batch %d (trace %#x, arrival %v), not its record's %d",
				a.Time, a.VehicleID, a.BatchID, a.TraceID, a.ArrivalTime, bc.BatchID)
		}
		if a.E2ELatencyS <= 0 || a.QueueWaitS < 0 {
			t.Fatalf("alarm at %v for %s: end to end %v s, queue wait %v s", a.Time, a.VehicleID, a.E2ELatencyS, a.QueueWaitS)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"pdm_e2e_traced_batches_total":        batches,
		"pdm_e2e_traced_alarms_total":         traced,
		"pdm_e2e_alarm_latency_seconds_count": traced,
	} {
		m := regexp.MustCompile(name + ` ([0-9]+)\b`).FindSubmatch(buf.Bytes())
		if m == nil {
			t.Fatalf("exposition missing %s", name)
		}
		if got, _ := strconv.Atoi(string(m[1])); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// sortAlarms orders alarms deterministically for comparison.
func sortAlarms(a []detector.Alarm) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].VehicleID != a[j].VehicleID {
			return a[i].VehicleID < a[j].VehicleID
		}
		if !a[i].Time.Equal(a[j].Time) {
			return a[i].Time.Before(a[j].Time)
		}
		return a[i].Channel < a[j].Channel
	})
}
