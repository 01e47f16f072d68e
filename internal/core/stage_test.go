package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// stageStream builds a deterministic single-vehicle stream with two
// maintenance events (one mid-stream, one trailing after the last
// record) so both reset paths are exercised.
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
	return records, events
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
			if !reflect.DeepEqual(want.Thresholds, got.Thresholds) {
				t.Error("Thresholds differ")
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
			if !reflect.DeepEqual(want.Alarmed, got.Alarmed) {
				t.Error("Alarmed differs")
			}
		})
	}
}

// TestTraceCollectorRecordsResets pins the reset bookkeeping: a reset
// between samples lands at the right emission index, and a trailing
// event is recorded past the last sample.
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
	err = Merged("veh-A", records, events,
		func(ev obd.Event) error { col.HandleEvent(ev); return nil },
		func(r timeseries.Record) error { _, err := col.HandleRecord(r); return err })
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.ResetIdx) != 2 || len(tt.ResetTimes) != 2 {
		t.Fatalf("resets = %d/%d, want 2/2", len(tt.ResetIdx), len(tt.ResetTimes))
	}
	if tt.ResetIdx[0] <= 0 || tt.ResetIdx[0] >= len(tt.Samples) {
		t.Errorf("mid-stream reset index %d out of (0,%d)", tt.ResetIdx[0], len(tt.Samples))
	}
	if tt.ResetIdx[1] != len(tt.Samples) {
		t.Errorf("trailing reset index = %d, want %d", tt.ResetIdx[1], len(tt.Samples))
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
