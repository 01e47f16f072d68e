package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// deferredCases are the two scoring paths a drain takes: closest-pair
// scores a run one ScoreInto at a time, TranAD through its RunScorer.
var deferredCases = []struct {
	name    string
	kind    transform.Kind
	profile int
	det     func(names []string) detector.Detector
}{
	{"closest-pair/correlation", transform.Correlation, 30, func(names []string) detector.Detector { return closestpair.New(names) }},
	{"tranad/raw", transform.Raw, 40, func([]string) detector.Detector {
		return tranad.New(tranad.Config{Window: 8, DModel: 12, Heads: 2, Epochs: 1, MaxWindows: 64, Seed: 1})
	}},
}

func deferredConfig(kind transform.Kind, profile int, det func([]string) detector.Detector, trace *Trace) Config {
	tr, err := transform.New(kind, 12)
	if err != nil {
		panic(err)
	}
	return Config{
		Transformer:   tr,
		Detector:      det(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(1.5),
		ProfileLength: profile,
		Filter:        func(*timeseries.Record) bool { return true },
		Trace:         trace,
	}
}

// TestLandFitMatchesInlineFits holds each deferred fit in flight — on
// its own goroutine — for a fixed number of records, so samples, reset
// markers and whole profile refills queue behind it, then lands it and
// takes the next. Whatever the hold, the alarms, the trace (scores,
// thresholds, resets, calibration segments) and the final snapshot must
// be those of the same stream through inline fits; and a pipeline with a
// fit in flight must refuse to snapshot.
func TestLandFitMatchesInlineFits(t *testing.T) {
	records, _ := stageStream(2400)
	var events []obd.Event
	for k := 1; k <= 4; k++ {
		events = append(events, obd.Event{VehicleID: "veh-A", Time: records[k*500+3].Time, Type: obd.EventService})
	}
	for _, c := range deferredCases {
		for _, hold := range []int{1, 50, 700} {
			t.Run(fmt.Sprintf("%s/hold=%d", c.name, hold), func(t *testing.T) {
				want := &Trace{}
				inline, err := NewPipeline("veh-A", deferredConfig(c.kind, c.profile, c.det, want))
				if err != nil {
					t.Fatal(err)
				}
				var wantAlarms []detector.Alarm
				err = Merged("veh-A", records, events,
					func(ev obd.Event) error { inline.HandleEvent(ev); return nil },
					func(r timeseries.Record) error {
						a, err := inline.HandleRecord(r)
						wantAlarms = append(wantAlarms, a...)
						return err
					})
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Resets) != len(events) || len(want.SegCalib) <= len(events) || len(wantAlarms) == 0 {
					t.Fatalf("reference too trivial: %d resets, %d fits, %d alarms", len(want.Resets), len(want.SegCalib), len(wantAlarms))
				}

				got := &Trace{}
				p, err := NewPipeline("veh-A", deferredConfig(c.kind, c.profile, c.det, got))
				if err != nil {
					t.Fatal(err)
				}
				p.SetDeferFits(true)
				var gotAlarms []detector.Alarm
				var done chan error
				held, fits := 0, 0
				take := func() {
					if fit := p.TakePendingFit(); fit != nil {
						fits++
						done, held = make(chan error, 1), 0
						go func() { done <- fit() }()
					}
				}
				land := func() error {
					if err := <-done; err != nil {
						return err
					}
					done = nil
					a, err := p.LandFit()
					gotAlarms = append(gotAlarms, a...)
					take()
					return err
				}
				err = Merged("veh-A", records, events,
					func(ev obd.Event) error { p.HandleEvent(ev); return nil },
					func(r timeseries.Record) error {
						a, err := p.HandleRecord(r)
						gotAlarms = append(gotAlarms, a...)
						if err != nil {
							return err
						}
						if done == nil {
							take()
							return nil
						}
						if _, err := p.Snapshot(); !errors.Is(err, ErrFitInFlight) {
							return fmt.Errorf("snapshot with a fit in flight: %v", err)
						}
						if held++; held == hold {
							return land()
						}
						return nil
					})
				for err == nil && done != nil {
					err = land()
				}
				if err != nil {
					t.Fatal(err)
				}
				if fits != len(want.SegCalib) {
					t.Fatalf("%d deferred fits, want %d", fits, len(want.SegCalib))
				}
				if !reflect.DeepEqual(gotAlarms, wantAlarms) {
					t.Fatalf("alarms differ: %d, want %d", len(gotAlarms), len(wantAlarms))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("trace differs from the inline pipeline's")
				}
				a, err := inline.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatal("snapshot differs from the inline pipeline's")
				}
			})
		}
	}
}

// TestQueuedCycleAllocFree: a warm pipeline with a fit in flight queues
// a frame's worth of records and drains them when the fit lands without
// allocating, for either scoring path. (The fit itself is the
// detector's; the test marks one in flight as TakePendingFit would.)
func TestQueuedCycleAllocFree(t *testing.T) {
	for _, c := range []steadyCase{steadyCases[0], steadyCases[len(steadyCases)-1]} {
		t.Run(c.name, func(t *testing.T) {
			p, next := steadyPipelineFor(t, c, nil)
			cycle := func() {
				p.inFlight = true
				for k := 0; k < 300; k++ {
					if _, err := p.HandleRecord(next()); err != nil {
						t.Fatal(err)
					}
				}
				alarms, err := p.LandFit()
				if err != nil || len(alarms) != 0 {
					t.Fatalf("landing: %d alarms, %v", len(alarms), err)
				}
			}
			cycle()
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Fatalf("a warm queue-and-land cycle allocates %v times, want 0", allocs)
			}
		})
	}
}
