package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/regress"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/gbt"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// paperTechnique names one of the paper's four step-3 techniques with
// its benchmark-scale hyper-parameters (mirroring eval.NewDetector,
// which this package cannot import: eval's grid builds on fleet).
type paperTechnique struct {
	name       string
	constantTh bool
	build      func(featureNames []string) detector.Detector
}

func paperTechniques() []paperTechnique {
	return []paperTechnique{
		{"closest-pair", false, func(n []string) detector.Detector { return closestpair.New(n) }},
		{"grand", true, func([]string) detector.Detector { return grand.New(grand.Config{Measure: grand.KNN}) }},
		{"tranad", false, func([]string) detector.Detector {
			return tranad.New(tranad.Config{Window: 8, DModel: 12, Heads: 2, Epochs: 5, MaxWindows: 256, Seed: 7})
		}},
		{"xgboost", false, func(n []string) detector.Detector {
			return regress.New(n, gbt.Config{NumTrees: 25, MaxDepth: 3, Seed: 7})
		}},
	}
}

// traceSet hands each vehicle its own Trace; NewConfig is called from
// shard goroutines so the map needs a lock (traces themselves are
// owned by a single shard).
type traceSet struct {
	mu sync.Mutex
	m  map[string]*core.Trace
}

func newTraceSet() *traceSet { return &traceSet{m: map[string]*core.Trace{}} }

func (t *traceSet) get(v string) *core.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.m[v]
	if !ok {
		tr = &core.Trace{}
		t.m[v] = tr
	}
	return tr
}

// gridConfig builds the per-vehicle factory for one grid cell
// (technique × transformation), with per-vehicle traces when traces is
// non-nil.
func gridConfig(tech paperTechnique, kind transform.Kind, traces *traceSet) func(string) (core.Config, error) {
	return func(v string) (core.Config, error) {
		tr, err := transform.New(kind, 12)
		if err != nil {
			return core.Config{}, err
		}
		var th thresholds.Thresholder = thresholds.NewSelfTuning(3)
		if tech.constantTh {
			th = thresholds.NewConstant(0.5)
		}
		cfg := core.Config{
			Transformer:   tr,
			Detector:      tech.build(tr.FeatureNames()),
			Thresholder:   th,
			ProfileLength: 30,
			Filter:        func(*timeseries.Record) bool { return true },
		}
		if traces != nil {
			cfg.Trace = traces.get(v)
		}
		return cfg, nil
	}
}

// syntheticStream generates a deterministic multi-vehicle stream:
// sinusoidal signals with seeded jitter, chronologically interleaved
// across vehicles, plus one mid-stream service event per vehicle.
func syntheticStream(vehicles, perVehicle int) ([]timeseries.Record, []obd.Event) {
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2023, 3, 1, 7, 0, 0, 0, time.UTC)
	var records []timeseries.Record
	var events []obd.Event
	for i := 0; i < perVehicle; i++ {
		for v := 0; v < vehicles; v++ {
			var vals [obd.NumPIDs]float64
			vals[obd.EngineRPM] = 1400 + 300*math.Sin(float64(i)/9+float64(v)) + rng.Float64()*80
			vals[obd.Speed] = 45 + 20*math.Sin(float64(i)/13) + rng.Float64()*5
			vals[obd.CoolantTemp] = 85 + rng.Float64()*6
			vals[obd.IntakeTemp] = 22 + rng.Float64()*4
			vals[obd.MAPIntake] = 35 + 12*math.Sin(float64(i)/7+float64(v)) + rng.Float64()*4
			vals[obd.MAFAirFlowRate] = 9 + 4*math.Sin(float64(i)/7+float64(v)) + rng.Float64()*2
			records = append(records, timeseries.Record{
				VehicleID: fmt.Sprintf("veh-%02d", v),
				Time:      base.Add(time.Duration(i)*time.Minute + time.Duration(v)*time.Second),
				Values:    vals,
			})
		}
	}
	for v := 0; v < vehicles; v++ {
		events = append(events, obd.Event{
			VehicleID: fmt.Sprintf("veh-%02d", v),
			Time:      base.Add(time.Duration(perVehicle/3)*time.Minute + time.Duration(v)*time.Second),
			Type:      obd.EventService,
		})
	}
	return records, events
}

// splitEvents partitions events around the split record's timestamp,
// preserving Merged's events-before-same-timestamp-records order.
func splitEvents(events []obd.Event, splitTime time.Time) (first, second []obd.Event) {
	for _, ev := range events {
		if ev.Time.Before(splitTime) {
			first = append(first, ev)
		} else {
			second = append(second, ev)
		}
	}
	return first, second
}

// bitEqualRows compares two score/threshold matrices bit-for-bit.
func bitEqualRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEngineCheckpointResumeGate is the fleet-level resume gate the
// state/config split exists for: for every paper technique × transform
// grid cell, checkpoint a LIVE engine mid-stream (exercising the
// barrier quiesce), restore the checkpoint into an engine with a
// different shard count, replay the remainder, and require alarms and
// per-sample scores bit-identical to the uninterrupted run.
func TestEngineCheckpointResumeGate(t *testing.T) {
	const (
		vehicles   = 2
		perVehicle = 200
		split      = 263 // arbitrary mid-stream cut, past the fit point
	)
	records, events := syntheticStream(vehicles, perVehicle)
	evFirst, evSecond := splitEvents(events, records[split].Time)

	for _, tech := range paperTechniques() {
		for _, kind := range transform.AllKinds() {
			tech, kind := tech, kind
			t.Run(fmt.Sprintf("%s_%s", tech.name, kind), func(t *testing.T) {
				// Uninterrupted reference.
				refTraces := newTraceSet()
				eRef, err := NewEngine(Config{NewConfig: gridConfig(tech, kind, refTraces), Shards: 3, batchSize: 16})
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

				// Prefix run, checkpointed while live.
				preTraces := newTraceSet()
				e1, err := NewEngine(Config{NewConfig: gridConfig(tech, kind, preTraces), Shards: 3, batchSize: 16})
				if err != nil {
					t.Fatal(err)
				}
				wait1 := drainAlarms(e1)
				if err := e1.Replay(records[:split], evFirst); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := e1.Checkpoint(&buf); err != nil {
					t.Fatalf("live Checkpoint: %v", err)
				}
				if err := e1.Close(); err != nil {
					t.Fatal(err)
				}
				preAlarms := wait1()

				// Restore at a different shard count and replay the rest.
				postTraces := newTraceSet()
				e2, err := NewEngineFromCheckpoint(bytes.NewReader(buf.Bytes()),
					Config{NewConfig: gridConfig(tech, kind, postTraces), Shards: 1, batchSize: 16})
				if err != nil {
					t.Fatalf("NewEngineFromCheckpoint: %v", err)
				}
				wait2 := drainAlarms(e2)
				if err := e2.Replay(records[split:], evSecond); err != nil {
					t.Fatal(err)
				}
				if err := e2.Close(); err != nil {
					t.Fatal(err)
				}
				postAlarms := wait2()

				got := append(append([]detector.Alarm{}, preAlarms...), postAlarms...)
				sortAlarms(got)
				requireSameAlarms(t, fmt.Sprintf("resumed (%d+%d alarms)", len(preAlarms), len(postAlarms)), got, refAlarms)

				// Per-sample scores and thresholds: the prefix trace must be
				// the reference's head, the restored trace its tail.
				if st := e2.Stats(); st.RecordsIn != uint64(len(records)) {
					t.Errorf("restored RecordsIn = %d, want %d (totals must continue)", st.RecordsIn, len(records))
				}
				for id, ref := range refTraces.m {
					pre, post := preTraces.m[id], postTraces.m[id]
					if pre == nil || post == nil {
						t.Fatalf("vehicle %s missing from a run", id)
					}
					n := len(pre.Scores)
					if len(ref.Scores) != n+len(post.Scores) {
						t.Fatalf("vehicle %s: %d+%d samples vs %d uninterrupted",
							id, n, len(post.Scores), len(ref.Scores))
					}
					if !bitEqualRows(pre.Scores, ref.Scores[:n]) {
						t.Errorf("vehicle %s: prefix scores diverge from reference", id)
					}
					if !bitEqualRows(post.Scores, ref.Scores[n:]) {
						t.Errorf("vehicle %s: post-restore scores diverge from reference", id)
					}
					if !bitEqualRows(pre.Thresholds, ref.Thresholds[:n]) ||
						!bitEqualRows(post.Thresholds, ref.Thresholds[n:]) {
						t.Errorf("vehicle %s: thresholds diverge from reference", id)
					}
				}
			})
		}
	}
}

// TestEngineCheckpointClosedAndSkip covers the end-of-run checkpoint
// and skip-set persistence: a fleet checkpointed after its last Replay
// and before Close restores (at a different shard count) into an engine
// that resumes exactly and keeps excluding the skipped vehicle, and the
// closed engine refuses a second checkpoint with ErrClosed.
func TestEngineCheckpointClosedAndSkip(t *testing.T) {
	f := smallFleet()
	ids := f.AllVehicleIDs()
	skipID := ids[len(ids)-1]
	factory := func(v string) (core.Config, error) {
		if v == skipID {
			return core.Config{}, ErrSkipVehicle
		}
		return testConfig(), nil
	}
	// run replays into e, checkpoints it into ckpt when ckpt is non-nil,
	// and closes it.
	run := func(e *Engine, records []timeseries.Record, events []obd.Event, ckpt io.Writer) []detector.Alarm {
		t.Helper()
		wait := drainAlarms(e)
		if err := e.Replay(records, events); err != nil {
			t.Fatal(err)
		}
		if ckpt != nil {
			if err := e.Checkpoint(ckpt); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return wait()
	}

	eRef, err := NewEngine(Config{NewConfig: factory, Shards: 3, batchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := run(eRef, f.Records, f.Events, nil)
	sortAlarms(want)
	if len(want) == 0 {
		t.Fatal("reference run raised no alarms; resume check is vacuous")
	}

	split := len(f.Records) / 2
	evFirst, evSecond := splitEvents(f.Events, f.Records[split].Time)
	e1, err := NewEngine(Config{NewConfig: factory, Shards: 3, batchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	got := run(e1, f.Records[:split], evFirst, &buf)
	if err := e1.Checkpoint(io.Discard); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}

	e2, err := NewEngineFromCheckpoint(bytes.NewReader(buf.Bytes()),
		Config{NewConfig: factory, Shards: 5, batchSize: 32})
	if err != nil {
		t.Fatalf("NewEngineFromCheckpoint: %v", err)
	}
	got = append(got, run(e2, f.Records[split:], evSecond, nil)...)
	sortAlarms(got)
	requireSameAlarms(t, "resumed", got, want)
	for _, id := range e2.VehicleIDs() {
		if id == skipID {
			t.Errorf("skipped vehicle %s grew a handler after restore", id)
		}
	}
}

// TestEngineCheckpointNotSnapshottable: a fleet of transform-only
// trace collectors cannot be checkpointed; the engine must say so with
// the typed error and stay usable afterwards.
func TestEngineCheckpointNotSnapshottable(t *testing.T) {
	e, err := NewEngine(Config{
		NewHandler: func(v string) (Handler, error) {
			tr, err := transform.New(transform.Correlation, 12)
			if err != nil {
				return nil, err
			}
			return core.NewTraceCollector(v, core.TransformConfig{
				Transformer: tr,
				Filter:      func(*timeseries.Record) bool { return true },
			}, &core.TransformedTrace{})
		},
		Shards:     2,
		DropAlarms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	records, _ := syntheticStream(2, 40)
	if err := e.Replay(records, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("Checkpoint = %v, want ErrNotSnapshottable", err)
	}
	// The failed checkpoint released the barrier: the engine still
	// ingests and closes cleanly.
	if err := e.IngestBatch(records[:1], nil); err != nil {
		t.Fatalf("ingest after failed checkpoint: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewEngineFromCheckpointRejectsBadInput walks the typed-error
// contract: truncation, foreign bytes, future versions, corruption,
// unknown sections, duplicate vehicles and mismatched configurations
// must all refuse to restore — never panic, never half-restore.
func TestNewEngineFromCheckpointRejectsBadInput(t *testing.T) {
	factory := func(string) (core.Config, error) { return testConfig(), nil }
	records, events := syntheticStream(2, 120)
	e, err := NewEngine(Config{NewConfig: factory, Shards: 2, DropAlarms: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(records, events); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cfg := Config{NewConfig: factory, Shards: 3}
	restore := func(b []byte) error {
		re, err := NewEngineFromCheckpoint(bytes.NewReader(b), cfg)
		if err == nil {
			_ = re.Close()
		}
		return err
	}

	if err := restore(valid); err != nil {
		t.Fatalf("valid checkpoint refused: %v", err)
	}
	if err := restore(nil); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("empty input = %v, want ErrTruncated", err)
	}
	if err := restore([]byte("definitely not a checkpoint stream")); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("foreign bytes = %v, want ErrBadMagic", err)
	}
	future := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(future[8:], checkpoint.Version+1)
	var fv *checkpoint.FutureVersionError
	if err := restore(future); !errors.As(err, &fv) {
		t.Errorf("future version = %v, want FutureVersionError", err)
	}
	if err := restore(valid[:len(valid)-3]); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("truncated = %v, want ErrTruncated", err)
	}
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)-7] ^= 0x40
	if err := restore(corrupt); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("flipped byte = %v, want ErrCorrupt", err)
	}

	var unknown bytes.Buffer
	uenc := checkpoint.NewEncoder(&unknown)
	if err := uenc.Section("mystery", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := restore(unknown.Bytes()); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("unknown section = %v, want ErrBadCheckpoint", err)
	}

	// Duplicate vehicle section.
	var dup bytes.Buffer
	denc := checkpoint.NewEncoder(&dup)
	dec := checkpoint.NewDecoder(bytes.NewReader(valid))
	for {
		name, payload, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := denc.Section(name, payload); err != nil {
			t.Fatal(err)
		}
		if name == "vehicle" {
			if err := denc.Section(name, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := restore(dup.Bytes()); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("duplicate vehicle = %v, want ErrBadCheckpoint", err)
	}

	// A configuration that cannot host the state (different density
	// window) must be refused by the handler's own restore validation.
	mis := Config{NewConfig: func(string) (core.Config, error) {
		c := testConfig()
		c.DensityM = 3
		c.DensityK = 4
		return c, nil
	}, Shards: 2}
	if _, err := NewEngineFromCheckpoint(bytes.NewReader(valid), mis); err == nil {
		t.Error("mismatched pipeline configuration accepted a foreign checkpoint")
	}
}
