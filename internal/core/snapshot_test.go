package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// buildPipeline constructs the standard test pipeline (kind →
// closest-pair → self-tuning) writing into trace.
func buildPipeline(t testing.TB, kind transform.Kind, trace *Trace) *Pipeline {
	t.Helper()
	tr, err := transform.New(kind, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline("veh-A", Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(3),
		ProfileLength: 30,
		Filter:        func(*timeseries.Record) bool { return true },
		Trace:         trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feed drives the pipeline over the merged record/event stream slice
// [lo, hi) of the stageStream indices, collecting alarms.
func feed(t testing.TB, p *Pipeline, records []timeseries.Record, events []obd.Event) []detector.Alarm {
	t.Helper()
	var alarms []detector.Alarm
	err := Merged("veh-A", records, events,
		func(ev obd.Event) error { p.HandleEvent(ev); return nil },
		func(r timeseries.Record) error {
			a, err := p.HandleRecord(r)
			alarms = append(alarms, a...)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	return alarms
}

// TestPipelineSnapshotResume is the core-layer resume gate: freezing a
// pipeline at an arbitrary record index and restoring the snapshot into
// a freshly configured pipeline must continue bit-identically — same
// per-sample scores, thresholds, alarm decisions and alarms — as the
// uninterrupted run. Splits land in the collecting phase, mid-window,
// and deep into the detecting phase, where the restored closest-pair
// is refitted from Ref.
func TestPipelineSnapshotResume(t *testing.T) {
	records, events := stageStream(900)
	// Raw samples reach Ref as recorded. Every third record repeats one
	// speed, and one record in each profile reads NaN coolant (NaN
	// passes CleanFilter), so the refit takes closest-pair's duplicate
	// and NaN leave-one-out branches.
	dupNaN, dupEvents := stageStream(300)
	for i := range dupNaN {
		if i%3 == 0 {
			dupNaN[i].Values[obd.Speed] = 50
		}
	}
	dupNaN[5].Values[obd.CoolantTemp] = math.NaN()
	dupNaN[160].Values[obd.CoolantTemp] = math.NaN()
	for _, c := range []struct {
		name    string
		kind    transform.Kind
		records []timeseries.Record
		events  []obd.Event
		splits  []int
	}{
		{"correlation", transform.Correlation, records, events, []int{7, 35, 150, 500, 701}},
		{"raw-duplicates-nan", transform.Raw, dupNaN, dupEvents, []int{10, 100, 200}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, split := range c.splits {
				for _, early := range []bool{false, true} {
					t.Run(fmt.Sprintf("split=%d,early=%v", split, early), func(t *testing.T) {
						resumeAt(t, c.kind, c.records, c.events, split, early)
					})
				}
			}
		})
	}
}

// resumeAt runs records and events once uninterrupted and once
// snapshotted after record split and restored into a fresh pipeline,
// and compares the two runs' alarms and traces. With early, every event
// goes to the first half, so those after the split cross the snapshot
// as due resets.
func resumeAt(t *testing.T, kind transform.Kind, records []timeseries.Record, events []obd.Event, split int, early bool) {
	t.Helper()
	uninterrupted := &Trace{}
	ref := buildPipeline(t, kind, uninterrupted)
	wantAlarms := feed(t, ref, records, events)

	// First half on the original, snapshot, restore, second half on
	// the restored instance. Events are partitioned by the split
	// record's timestamp (Merged interleaves by time), unless early.
	splitTime := records[split].Time
	var evFirst, evSecond []obd.Event
	for _, ev := range events {
		if early || !ev.Time.After(splitTime) {
			evFirst = append(evFirst, ev)
		} else {
			evSecond = append(evSecond, ev)
		}
	}
	firstTrace := &Trace{}
	first := buildPipeline(t, kind, firstTrace)
	gotAlarms := feed(t, first, records[:split+1], evFirst)
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatalf("split %d: Snapshot: %v", split, err)
	}
	secondTrace := &Trace{}
	second := buildPipeline(t, kind, secondTrace)
	if err := second.Restore(snap); err != nil {
		t.Fatalf("split %d: Restore: %v", split, err)
	}
	gotAlarms = append(gotAlarms, feed(t, second, records[split+1:], evSecond)...)

	if !reflect.DeepEqual(gotAlarms, wantAlarms) {
		t.Fatalf("split %d: resumed alarms differ: got %d, want %d",
			split, len(gotAlarms), len(wantAlarms))
	}
	got := concatTraces(firstTrace, secondTrace)
	compareTraces(t, split, got, uninterrupted)
}

// concatTraces merges the pre- and post-restore traces into one
// continued history, resolving segment indices through SegCalib so the
// result is comparable with an uninterrupted trace.
func concatTraces(a, b *Trace) *Trace {
	out := &Trace{}
	out.Times = append(append(out.Times, a.Times...), b.Times...)
	out.Scores = append(append(out.Scores, a.Scores...), b.Scores...)
	out.Resets = append(append(out.Resets, a.Resets...), b.Resets...)
	// The restored trace's first SegCalib entry is the segment active at
	// the snapshot — the same stats as the original's last entry. Skip
	// the duplicate when the pre-restore trace already recorded it.
	skip := 0
	if len(a.SegCalib) > 0 && len(b.SegCalib) > 0 &&
		sameCalib(a.SegCalib[len(a.SegCalib)-1:], b.SegCalib[:1]) {
		skip = 1
	}
	out.SegCalib = append(append(out.SegCalib, a.SegCalib...), b.SegCalib[skip:]...)
	out.Segments = append(out.Segments, a.Segments...)
	base := len(a.SegCalib) - skip
	for _, s := range b.Segments {
		out.Segments = append(out.Segments, s+base)
	}
	return out
}

func compareTraces(t *testing.T, split int, got, want *Trace) {
	t.Helper()
	if !reflect.DeepEqual(got.Times, want.Times) {
		t.Fatalf("split %d: Times differ (%d vs %d)", split, len(got.Times), len(want.Times))
	}
	if !sameBits(got.Scores, want.Scores) {
		t.Fatalf("split %d: Scores differ", split)
	}
	if !reflect.DeepEqual(got.Resets, want.Resets) {
		t.Fatalf("split %d: Resets differ: %v vs %v", split, got.Resets, want.Resets)
	}
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("split %d: Segments differ", split)
	}
	if !sameCalib(got.SegCalib, want.SegCalib) {
		t.Fatalf("split %d: SegCalib differs", split)
	}
}

// sameBits reports whether a and b hold the same float64 bits row by
// row: reflect.DeepEqual calls a NaN unequal to itself.
func sameBits(a, b [][]float64) bool {
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

// sameCalib is sameBits over each segment's means and deviations.
func sameCalib(a, b []Calib) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits([][]float64{a[i].Means, a[i].Stds}, [][]float64{b[i].Means, b[i].Stds}) {
			return false
		}
	}
	return true
}

// TestPipelineSnapshotRejectsMismatch covers the config/state contract:
// a snapshot only restores into an identically configured pipeline.
func TestPipelineSnapshotRejectsMismatch(t *testing.T) {
	records, _ := stageStream(200)
	p := buildPipeline(t, transform.Correlation, nil)
	feed(t, p, records, nil)
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different vehicle.
	tr, _ := transform.New(transform.Correlation, 12)
	other, err := NewPipeline("veh-B", Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(3),
		ProfileLength: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("pipeline for veh-B accepted veh-A's snapshot")
	}

	// Different density window.
	tr2, _ := transform.New(transform.Correlation, 12)
	dens, err := NewPipeline("veh-A", Config{
		Transformer:   tr2,
		Detector:      closestpair.New(tr2.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(3),
		ProfileLength: 30,
		DensityM:      3,
		DensityK:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dens.Restore(snap); err == nil {
		t.Fatal("pipeline with a different density window accepted the snapshot")
	}

	// A detect stage that carries a closest-pair detector payload was
	// written before closest-pair refitted from Ref: refused by its
	// retired tag.
	cp := closestpair.New(nil)
	stage, err := NewDetectStage("veh-A", DetectConfig{Detector: cp, Thresholder: thresholds.NewSelfTuning(3)})
	if err != nil {
		t.Fatal(err)
	}
	thSnap, err := thresholds.NewSelfTuning(3).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var cpSnap checkpoint.Buf
	cpSnap.Uint8(10) // what an unfitted closest-pair wrote: no names, no columns
	cpSnap.Int(0)
	cpSnap.Float64Rows(nil)
	cpSnap.Float64Rows(nil)
	if err := stage.Restore(detectPayload(false, nil, cpSnap.Bytes(), thSnap)); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "tag 10") {
		t.Errorf("detect stage with a closest-pair payload: err = %v, want ErrBadSnapshot naming tag 10", err)
	}

	// Corrupted payloads error, never panic.
	target := buildPipeline(t, transform.Correlation, nil)
	for _, cut := range []int{0, 1, len(snap) / 3, len(snap) - 1} {
		if err := target.Restore(snap[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	tsSnap, err := p.ts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dsSnap, err := p.ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Ref rows of the wrong width, which closest-pair's fit or score
	// would refuse (width 0: index) only after the vehicle resumed.
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{0, 3, 20, 15} {
		for _, fitted := range []bool{false, true} {
			ref := make([][]float64, 5)
			if fitted {
				ref = make([][]float64, 30)
			}
			for i := range ref {
				ref[i] = make([]float64, width)
				for j := range ref[i] {
					ref[i][j] = rng.Float64()
				}
			}
			err := buildPipeline(t, transform.Correlation, nil).Restore(pipelinePayload(tsSnap, detectPayload(fitted, ref, nil, thSnap)))
			if width == 15 && err != nil || width != 15 && !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("Ref rows of width %d, fitted %v: err = %v", width, fitted, err)
			}
		}
	}
	// Ordering clocks that Feed and Event could not have left, and the
	// retired transform-stage tag 20, which carried no clock.
	inner, err := p.ts.cfg.Transformer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clock := records[len(records)-1].Time
	hour := func(h int) time.Time { return clock.Add(time.Duration(h) * time.Hour) }
	for _, c := range []struct {
		name             string
		tag              uint8
		n                int
		clock, lastReset time.Time
		due              []time.Time
		ok               bool
	}{
		{"valid", transformStageTag, 2, clock, hour(-1), []time.Time{hour(1), hour(2)}, true},
		{"retired-tag-20", 20, 2, clock, hour(-1), []time.Time{hour(1), hour(2)}, false},
		{"last-reset-after-clock", transformStageTag, 0, clock, hour(1), nil, false},
		{"due-at-clock", transformStageTag, 1, clock, time.Time{}, []time.Time{clock}, false},
		{"due-descending", transformStageTag, 2, clock, time.Time{}, []time.Time{hour(2), hour(1)}, false},
		{"due-repeated", transformStageTag, 2, clock, time.Time{}, []time.Time{hour(1), hour(1)}, false},
		{"negative-count", transformStageTag, -1, clock, time.Time{}, nil, false},
	} {
		var b checkpoint.Buf
		b.Uint8(c.tag)
		b.Time(c.clock)
		b.Time(c.lastReset)
		b.Int(c.n)
		for _, d := range c.due {
			b.Time(d)
		}
		b.Bytes64(inner)
		b.Bool(false)
		err := buildPipeline(t, transform.Correlation, nil).Restore(pipelinePayload(b.Bytes(), dsSnap))
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v", c.name, err)
		}
		if c.tag == 20 && (err == nil || !strings.Contains(err.Error(), "tag 20")) {
			t.Errorf("%s: err = %v, want one naming tag 20", c.name, err)
		}
	}
}

// pipelinePayload is a veh-A pipeline snapshot of the two stage payloads.
func pipelinePayload(ts, ds []byte) []byte {
	var b checkpoint.Buf
	b.Uint8(pipelineTag)
	b.String("veh-A")
	b.Bytes64(ts)
	b.Bytes64(ds)
	return b.Bytes()
}

// detectPayload is a detect-stage snapshot of a one-sample density
// window holding ref, collecting or fitted, with the given detector and
// thresholder payloads.
func detectPayload(fitted bool, ref [][]float64, detSnap, thSnap []byte) []byte {
	var b checkpoint.Buf
	b.Uint8(detectStageTag)
	state := StateCollecting
	if fitted {
		state = StateDetecting
	}
	b.Uint8(uint8(state))
	b.Bool(fitted)
	b.Uint64(0)
	b.Float64Rows(ref)
	b.Bools(make([]bool, 1))
	b.Int(0)
	b.Int(0)
	b.Float64s(nil)
	b.Float64s(nil)
	b.Bytes64(detSnap)
	b.Bytes64(thSnap)
	return b.Bytes()
}

// TestResetOnRepairsOnlyThroughStagedPath covers the ResetPolicy =
// ResetOnRepairsOnly variant end to end through the transform-once
// staged path: the trace collector must ignore service events under the
// policy, and DetectOnTrace over the collected trace must reproduce the
// streaming pipeline's behaviour exactly.
func TestResetOnRepairsOnlyThroughStagedPath(t *testing.T) {
	records, events := stageStream(1200)
	// stageStream emits one mid-stream service and one trailing repair;
	// under ResetOnRepairsOnly only the repair resets.
	passAll := func(*timeseries.Record) bool { return true }

	// Streaming pipeline reference.
	want := &Trace{}
	tr, err := transform.New(transform.Correlation, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline("veh-A", Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(3),
		ProfileLength: 30,
		ResetPolicy:   ResetOnRepairsOnly,
		Filter:        passAll,
		Trace:         want,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Merged("veh-A", records, events,
		func(ev obd.Event) error { p.HandleEvent(ev); return nil },
		func(r timeseries.Record) error { _, err := p.HandleRecord(r); return err })
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Resets) != 1 {
		t.Fatalf("streaming run recorded %d resets, want 1 (repair only)", len(want.Resets))
	}
	if len(want.Scores) == 0 {
		t.Fatal("streaming run scored nothing")
	}

	// Staged path: collect the transformed trace under the same policy,
	// then replay detection over the cache.
	tt := &TransformedTrace{}
	tr2, err := transform.New(transform.Correlation, 12)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewTraceCollector("veh-A", TransformConfig{
		Transformer: tr2,
		Filter:      passAll,
		ResetPolicy: ResetOnRepairsOnly,
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
	if len(tt.ResetIdx) != 1 {
		t.Fatalf("trace collector recorded %d resets, want 1: service events must not reset under ResetOnRepairsOnly", len(tt.ResetIdx))
	}

	got := &Trace{}
	tr3, err := transform.New(transform.Correlation, 12)
	if err != nil {
		t.Fatal(err)
	}
	err = DetectOnTrace("veh-A", tt, DetectConfig{
		Detector:      closestpair.New(tr3.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(3),
		ProfileLength: 30,
		Trace:         got,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]interface{}{
		"Times":    {got.Times, want.Times},
		"Scores":   {got.Scores, want.Scores},
		"Segments": {got.Segments, want.Segments},
		"SegCalib": {got.SegCalib, want.SegCalib},
		"Resets":   {got.Resets, want.Resets},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differs between streaming and staged ResetOnRepairsOnly runs", name)
		}
	}
}
