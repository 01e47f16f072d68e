package fleet

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// bareHandler is a pipeline behind the three required Handler methods
// and nothing else: no provenance, no deferred fits, no snapshot.
type bareHandler struct{ p *core.Pipeline }

func (h bareHandler) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	return h.p.HandleRecord(r)
}
func (h bareHandler) HandleEvent(ev obd.Event) { h.p.HandleEvent(ev) }
func (h bareHandler) ScoredSamples() uint64    { return h.p.ScoredSamples() }

// seamCounts tallies the engine's calls through each optional seam.
type seamCounts struct {
	deferOn, fits, prov, snaps, restores atomic.Int64
}

// seamHandler is a pipeline with every optional seam, each counted.
type seamHandler struct {
	*core.Pipeline
	c *seamCounts
}

func (h seamHandler) SetDeferFits(on bool) {
	if on {
		h.c.deferOn.Add(1)
	}
	h.Pipeline.SetDeferFits(on)
}

func (h seamHandler) TakePendingFit() func() error {
	fit := h.Pipeline.TakePendingFit()
	if fit != nil {
		h.c.fits.Add(1)
	}
	return fit
}

func (h seamHandler) SetProvenance(bc *obs.BatchCtx, dequeue time.Time) {
	if bc != nil {
		h.c.prov.Add(1)
	}
	h.Pipeline.SetProvenance(bc, dequeue)
}

func (h seamHandler) Snapshot() ([]byte, error) {
	h.c.snaps.Add(1)
	return h.Pipeline.Snapshot()
}

func (h seamHandler) Restore(data []byte) error {
	h.c.restores.Add(1)
	return h.Pipeline.Restore(data)
}

// TestOptionalSeamsResolvedAtBuild drives a handler with none of the
// optional seams and one with all of them down the same road — Replay
// with fits, a live Checkpoint, a restore at another shard count, an
// ExtractVehicle/AdoptVehicle move to a third engine, a traced batch —
// now that the engine asks "which seams?" once per vehicle instead of
// once per record. With every seam the alarms must stay bit-identical
// to an uninterrupted run and every seam must have been used; with none
// the alarms must be just as identical, and checkpoint, extraction and
// adoption must fail typed and leave the engine serving.
func TestOptionalSeamsResolvedAtBuild(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f.Records, f.Events, newTestConfig)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; the comparison is vacuous")
	}
	vehicles := len(f.AllVehicleIDs())
	n := len(f.Records)
	recA, recB, recC := f.Records[:n/3], f.Records[n/3:2*n/3], f.Records[2*n/3:]
	evA, evRest := splitEvents(f.Events, recB[0].Time)
	evB, evC := splitEvents(evRest, recC[0].Time)

	for _, tc := range []struct {
		name  string
		seams bool
	}{{"none", false}, {"all", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var c seamCounts
			cfg := func(shards int) Config {
				return Config{
					NewHandler: func(id string) (Handler, error) {
						p, err := core.NewPipeline(id, testConfig())
						if err != nil {
							return nil, err
						}
						if tc.seams {
							return seamHandler{p, &c}, nil
						}
						return bareHandler{p}, nil
					},
					Shards:    shards,
					batchSize: 32,
				}
			}
			var got []detector.Alarm
			finish := func(e *Engine, wait func() []detector.Alarm) {
				t.Helper()
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				got = append(got, wait()...)
			}

			e1 := newEngine(t, cfg(3))
			wait1 := drainAlarms(e1)
			if err := e1.Replay(recA, evA); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := e1.Checkpoint(&buf)

			if !tc.seams {
				if !errors.Is(err, ErrNotSnapshottable) {
					t.Fatalf("live Checkpoint = %v, want ErrNotSnapshottable", err)
				}
				ids := e1.VehicleIDs()
				for _, id := range ids {
					if _, err := e1.ExtractVehicle(id); !errors.Is(err, ErrNotSnapshottable) {
						t.Fatalf("ExtractVehicle(%s) = %v, want ErrNotSnapshottable", id, err)
					}
					if st := e1.CordonState(id); st != "" {
						t.Fatalf("failed extraction left %s fenced %q", id, st)
					}
				}
				if err := e1.AdoptVehicle(VehicleState{ID: "veh-new"}); !errors.Is(err, ErrNotSnapshottable) {
					t.Fatalf("AdoptVehicle = %v, want ErrNotSnapshottable", err)
				}
				if after := e1.VehicleIDs(); len(after) != len(ids) {
					t.Fatalf("vehicles after the refusals = %v, want %v", after, ids)
				}
				if err := e1.Replay(recB, evB); err != nil {
					t.Fatal(err)
				}
				if err := e1.Replay(recC, evC); err != nil {
					t.Fatal(err)
				}
				finish(e1, wait1)
			} else {
				if err != nil {
					t.Fatalf("live Checkpoint: %v", err)
				}
				finish(e1, wait1)
				if c.fits.Load() == 0 {
					t.Fatal("no deferred fit was taken before the checkpoint; the async leg is vacuous")
				}

				e2, err := NewEngineFromCheckpoint(bytes.NewReader(buf.Bytes()), cfg(1))
				if err != nil {
					t.Fatalf("NewEngineFromCheckpoint: %v", err)
				}
				wait2 := drainAlarms(e2)
				if err := e2.Replay(recB, evB); err != nil {
					t.Fatal(err)
				}
				e3 := newEngine(t, cfg(2))
				wait3 := drainAlarms(e3)
				for _, id := range e2.VehicleIDs() {
					vs, err := e2.ExtractVehicle(id)
					if err != nil {
						t.Fatalf("ExtractVehicle(%s): %v", id, err)
					}
					if err := e3.AdoptVehicle(vs); err != nil {
						t.Fatalf("AdoptVehicle(%s): %v", id, err)
					}
				}
				finish(e2, wait2)
				if err := e3.IngestBatchCtx(recC, evC, &obs.BatchCtx{BatchID: 1}); err != nil {
					t.Fatal(err)
				}
				finish(e3, wait3)

				for _, chk := range []struct {
					seam      string
					got, want int64
				}{
					{"SetDeferFits(true)", c.deferOn.Load(), int64(3 * vehicles)}, // built on e1, e2 and e3
					{"Snapshot", c.snaps.Load(), int64(2 * vehicles)},             // checkpoint + extraction
					{"Restore", c.restores.Load(), int64(2 * vehicles)},           // restore + adoption
				} {
					if chk.got != chk.want {
						t.Errorf("%s called %d times, want %d", chk.seam, chk.got, chk.want)
					}
				}
				if c.prov.Load() == 0 {
					t.Error("the traced batch never reached SetProvenance")
				}
			}

			sortAlarms(got)
			requireSameAlarms(t, tc.name, got, want)
		})
	}
}
