package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// stageStream builds a deterministic single-vehicle stream of n records
// with two maintenance events: one mid-stream, and one after the n-th
// record, which a closing record ten minutes later applies.
func stageStream(n int) ([]timeseries.Record, []obd.Event) {
	base := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(42))
	records := make([]timeseries.Record, 0, n)
	for i := 0; i < n; i++ {
		var v [obd.NumPIDs]float64
		v[obd.EngineRPM] = 1400 + 300*rng.Float64()
		v[obd.Speed] = 30 + 40*rng.Float64()
		v[obd.CoolantTemp] = 85 + 6*rng.Float64()
		v[obd.IntakeTemp] = 20 + 10*rng.Float64()
		v[obd.MAPIntake] = 35 + 10*rng.Float64()
		v[obd.MAFAirFlowRate] = 8 + 4*rng.Float64()
		records = append(records, timeseries.Record{
			VehicleID: "veh-A",
			Time:      base.Add(time.Duration(i) * time.Minute),
			Values:    v,
		})
	}
	events := []obd.Event{
		{VehicleID: "veh-A", Time: base.Add(time.Duration(n/2) * time.Minute), Type: obd.EventService},
		{VehicleID: "veh-A", Time: base.Add(time.Duration(n+10) * time.Minute), Type: obd.EventRepair},
	}
	closing := records[n-1]
	closing.Time = base.Add(time.Duration(n+20) * time.Minute)
	return append(records, closing), events
}

// TestDetectOnTraceMatchesPipeline is the stage-split contract: running
// the transform stage once into a TransformedTrace and replaying it with
// DetectOnTrace must reproduce the streaming pipeline's trace exactly —
// same times, scores, segments, calibration stats and resets — whether
// the detector scores DetectOnTrace's runs a sample at a time
// (closest-pair) or through its RunScorer (TranAD).
func TestDetectOnTraceMatchesPipeline(t *testing.T) {
	records, events := stageStream(1200)
	passAll := func(*timeseries.Record) bool { return true }

	for _, c := range deferredCases {
		t.Run(c.name, func(t *testing.T) {
			// Streaming pipeline reference.
			want := &Trace{}
			cfg := deferredConfig(c.kind, c.profile, c.det, want)
			cfg.Thresholder = thresholds.NewSelfTuning(3)
			p, err := NewPipeline("veh-A", cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = Merged("veh-A", records, events,
				func(ev obd.Event) error { p.HandleEvent(ev); return nil },
				func(r timeseries.Record) error { _, err := p.HandleRecord(r); return err })
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Scores) == 0 || len(want.SegCalib) < 2 || len(want.Resets) != 2 {
				t.Fatalf("reference run too trivial: %d scores, %d segments, %d resets",
					len(want.Scores), len(want.SegCalib), len(want.Resets))
			}

			// Transform once, then detect on the cached trace.
			tt := &TransformedTrace{}
			cfg = deferredConfig(c.kind, c.profile, c.det, nil)
			col, err := NewTraceCollector("veh-A", TransformConfig{
				Transformer: cfg.Transformer,
				Filter:      passAll,
			}, tt)
			if err != nil {
				t.Fatal(err)
			}
			err = Merged("veh-A", records, events,
				func(ev obd.Event) error { col.HandleEvent(ev); return nil },
				func(r timeseries.Record) error { _, err := col.HandleRecord(r); return err })
			if err != nil {
				t.Fatal(err)
			}
			if int(col.ScoredSamples()) != len(tt.Samples) {
				t.Fatalf("ScoredSamples = %d, want %d", col.ScoredSamples(), len(tt.Samples))
			}
			got := &Trace{}
			err = DetectOnTrace("veh-A", tt, DetectConfig{
				Detector:      cfg.Detector,
				Thresholder:   thresholds.NewSelfTuning(3),
				ProfileLength: c.profile,
				Trace:         got,
			})
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want.Times, got.Times) {
				t.Errorf("Times differ: %d vs %d entries", len(want.Times), len(got.Times))
			}
			if !reflect.DeepEqual(want.Scores, got.Scores) {
				t.Error("Scores differ between pipeline and cached-trace replay")
			}
			if !reflect.DeepEqual(want.Segments, got.Segments) {
				t.Error("Segments differ")
			}
			if !reflect.DeepEqual(want.SegCalib, got.SegCalib) {
				t.Error("SegCalib differs")
			}
			if !reflect.DeepEqual(want.Resets, got.Resets) {
				t.Errorf("Resets differ: %v vs %v", want.Resets, got.Resets)
			}
		})
	}
}

// TestTraceCollectorRecordsResets pins the reset bookkeeping: a reset
// between samples lands at the right emission index, and one after the
// last record waits for the next record, then is recorded past the last
// sample.
func TestTraceCollectorRecordsResets(t *testing.T) {
	records, events := stageStream(600)
	tr, err := transform.New(transform.MeanAgg, 10)
	if err != nil {
		t.Fatal(err)
	}
	tt := &TransformedTrace{}
	col, err := NewTraceCollector("veh-A", TransformConfig{
		Transformer: tr,
		Filter:      func(*timeseries.Record) bool { return true },
	}, tt)
	if err != nil {
		t.Fatal(err)
	}
	closing := records[len(records)-1]
	err = Merged("veh-A", records[:len(records)-1], events,
		func(ev obd.Event) error { col.HandleEvent(ev); return nil },
		func(r timeseries.Record) error { _, err := col.HandleRecord(r); return err })
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.ResetIdx) != 1 {
		t.Fatalf("resets = %d before the closing record, want 1: the trailing one waits for it", len(tt.ResetIdx))
	}
	if _, err := col.HandleRecord(closing); err != nil {
		t.Fatal(err)
	}
	if len(tt.ResetIdx) != 2 || len(tt.ResetTimes) != 2 {
		t.Fatalf("resets = %d/%d, want 2/2", len(tt.ResetIdx), len(tt.ResetTimes))
	}
	if tt.ResetIdx[0] <= 0 || tt.ResetIdx[0] >= len(tt.Samples) {
		t.Errorf("mid-stream reset index %d out of (0,%d)", tt.ResetIdx[0], len(tt.Samples))
	}
	if tt.ResetIdx[1] != len(tt.Samples) || !tt.ResetTimes[1].Equal(events[1].Time) {
		t.Errorf("trailing reset at index %d, %v; want %d, %v", tt.ResetIdx[1], tt.ResetTimes[1], len(tt.Samples), events[1].Time)
	}
	// Records for another vehicle are ignored entirely.
	before := len(tt.Samples)
	other := records[0]
	other.VehicleID = "veh-B"
	if _, err := col.HandleRecord(other); err != nil {
		t.Fatal(err)
	}
	col.HandleEvent(obd.Event{VehicleID: "veh-B", Time: time.Now(), Type: obd.EventRepair})
	if len(tt.Samples) != before || len(tt.ResetIdx) != 2 {
		t.Error("foreign vehicle's stream leaked into the trace")
	}
}

// TestTransformStageOrderingRule walks the ordering rule through a trace
// collector over the raw transform, which emits one sample per record:
// a record or reset no newer than what the stage has taken is a counted
// no-op, a late reset applies at once, and a reset ahead of the clock
// waits for the first record at or after its time, events first on a tie.
func TestTransformStageOrderingRule(t *testing.T) {
	base := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	at := func(m int) time.Time { return base.Add(time.Duration(m) * time.Minute) }
	tr, err := transform.New(transform.Raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tt := &TransformedTrace{}
	col, err := NewTraceCollector("veh-A", TransformConfig{
		Transformer: tr,
		Filter:      func(*timeseries.Record) bool { return true },
		Observer:    obs.NewObserver(reg, obs.ObserverConfig{}),
	}, tt)
	if err != nil {
		t.Fatal(err)
	}
	stale := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return string(regexp.MustCompile(`pdm_pipeline_stale_drops_total (\d+)`).FindSubmatch(buf.Bytes())[1])
	}
	rec := func(ms ...int) {
		for _, m := range ms {
			if _, err := col.HandleRecord(timeseries.Record{VehicleID: "veh-A", Time: at(m)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ev := func(typ obd.EventType, ms ...int) {
		for _, m := range ms {
			col.HandleEvent(obd.Event{VehicleID: "veh-A", Time: at(m), Type: typ})
		}
	}
	for _, step := range []struct {
		name       string
		do         func()
		samples    int
		resetAt    []int // minutes of the resets recorded so far
		resetIdx   []int
		stale, due int
	}{
		{"records", func() { rec(1, 2, 3, 4, 5) }, 5, nil, nil, 0, 0},
		{"late reset", func() { ev(obd.EventService, 3) }, 5, []int{3}, []int{5}, 0, 0},
		{"re-sent and older resets", func() { ev(obd.EventService, 3); ev(obd.EventRepair, 2) }, 5, []int{3}, []int{5}, 2, 0},
		{"resets ahead wait once", func() { ev(obd.EventRepair, 8, 7); ev(obd.EventService, 8); ev(obd.EventDTC, 9) }, 5, []int{3}, []int{5}, 3, 2},
		{"re-sent records", func() { rec(5, 4) }, 5, []int{3}, []int{5}, 5, 2},
		{"tie: reset first", func() { rec(7) }, 6, []int{3, 7}, []int{5, 5}, 5, 1},
		{"record past a due reset", func() { rec(10) }, 7, []int{3, 7, 8}, []int{5, 5, 6}, 5, 0},
		{"re-sent applied reset", func() { ev(obd.EventRepair, 8, 9) }, 7, []int{3, 7, 8, 9}, []int{5, 5, 6, 7}, 6, 0},
	} {
		step.do()
		var resetAt []int
		for _, rt := range tt.ResetTimes {
			resetAt = append(resetAt, int(rt.Sub(base)/time.Minute))
		}
		if len(tt.Samples) != step.samples || !reflect.DeepEqual(resetAt, step.resetAt) || !reflect.DeepEqual(tt.ResetIdx, step.resetIdx) ||
			stale() != strconv.Itoa(step.stale) || len(col.stage.due) != step.due {
			t.Fatalf("%s: %d samples, resets at %v (indices %v), %s stale, %d due; want %d, %v (%v), %d, %d",
				step.name, len(tt.Samples), resetAt, tt.ResetIdx, stale(), len(col.stage.due),
				step.samples, step.resetAt, step.resetIdx, step.stale, step.due)
		}
	}
}

// TestNewStageValidation covers constructor error paths.
func TestNewStageValidation(t *testing.T) {
	if _, err := NewTransformStage(TransformConfig{}); err == nil {
		t.Error("TransformStage without transformer should error")
	}
	if _, err := NewDetectStage("v", DetectConfig{}); err == nil {
		t.Error("DetectStage without detector should error")
	}
	if _, err := NewTraceCollector("v", TransformConfig{}, nil); err == nil {
		t.Error("TraceCollector without output should error")
	}
}
