package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/regress"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/gbt"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// runVehicleReference is the one-pass RunVehicle: a streaming Pipeline
// fed the vehicle's merged stream, every fit inline on one detector.
func runVehicleReference(vehicleID string, records []timeseries.Record, events []obd.Event, makeCfg func() core.Config) ([]detector.Alarm, error) {
	p, err := core.NewPipeline(vehicleID, makeCfg())
	if err != nil {
		return nil, err
	}
	var alarms []detector.Alarm
	err = core.Merged(vehicleID, records, events,
		func(ev obd.Event) error {
			p.HandleEvent(ev)
			return nil
		},
		func(r timeseries.Record) error {
			a, err := p.HandleRecord(r)
			if err != nil {
				return err
			}
			alarms = append(alarms, a...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return alarms, nil
}

// opaque hides every optional extension of the detector it wraps,
// detector.Replicator among them, so RunVehicle fits it inline.
type opaque struct{ detector.Detector }

// TestRunVehicleMatchesReference holds RunVehicle, whose fits run on
// fitpool, to the one-pass streaming reference: every paper technique
// and an opaque Grand (no detector.Replicator, so one detector fitted
// inline) over every transform, on the small fleet plus a vehicle whose
// last reset falls after its last sample, at 1, 2 and 8 fit workers
// (fewer vehicles under -race: see race_test.go). Alarms, trace rows,
// calibration segments, resets and journal entries must be
// Float64bits-equal.
func TestRunVehicleMatchesReference(t *testing.T) {
	xgb, opq := goldenCases[0], goldenCases[0]
	xgb.name = "xgboost"
	xgb.det = func(names []string) detector.Detector {
		return regress.New(names, gbt.Config{NumTrees: 10, MaxDepth: 3})
	}
	xgb.th = func() thresholds.Thresholder { return thresholds.NewSelfTuning(12) }
	opq.name = "opaque-grand"
	opq.det = func([]string) detector.Detector { return opaque{grand.New(grand.Config{})} }
	opq.th = func() thresholds.Thresholder { return thresholds.NewConstant(0.6) }
	cases := append(slices.Clone(goldenCases), xgb, opq)

	f := fleetsim.Generate(fleetsim.SmallConfig())
	ids := f.AllVehicleIDs()
	slices.Sort(ids)
	records, events, tail, resetAt := withTailReset(f, ids[0])
	ids = append(ids, tail)

	defer fitpool.SetWorkers(fitpool.Workers())
	for _, kind := range []transform.Kind{transform.Correlation, transform.Raw, transform.Delta, transform.MeanAgg} {
		for _, c := range cases {
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) {
				ids := ids
				if raceEnabled && (kind == transform.Raw || kind == transform.Delta) {
					ids = append(ids[:2:2], tail)
				}
				run := func(drive func(string, []timeseries.Record, []obd.Event, func() core.Config) ([]detector.Alarm, error)) *goldenRun {
					g := newGoldenRun()
					for _, id := range ids {
						a, err := drive(id, records, events, func() core.Config { return g.config(id, kind, c.det, c.th) })
						if err != nil {
							t.Fatal(err)
						}
						g.alarms[id] = a
					}
					return g
				}
				fitpool.SetWorkers(1)
				want := run(runVehicleReference)
				if tr := want.traces[tail]; len(tr.Times) == 0 || !slices.Contains(tr.Resets, resetAt) || !resetAt.After(tr.Times[len(tr.Times)-1]) {
					t.Fatalf("%s: no reset after the last sample", tail)
				}
				if want.j.Total() == 0 {
					t.Fatal("no alarms: the comparison has no teeth")
				}
				for _, workers := range []int{1, 2, 8} {
					fitpool.SetWorkers(workers)
					got := run(core.RunVehicle)
					for _, id := range ids {
						w, g := runParts(t, want, id), runParts(t, got, id)
						for part := range w {
							if w[part] != g[part] {
								t.Errorf("workers=%d %s: %s differ", workers, id, part)
							}
						}
					}
				}
			})
		}
	}
}

var errFit = errors.New("fit refused")

// failingFits is closest-pair whose replicas share one count of Fit
// calls and refuse every call after the limit-th.
type failingFits struct {
	*closestpair.Detector
	fits  *atomic.Int32
	limit int32
}

func (d failingFits) Fit(ref [][]float64) error {
	if d.fits.Add(1) > d.limit {
		return errFit
	}
	return d.Detector.Fit(ref)
}

func (d failingFits) Replicate() detector.Detector {
	return failingFits{closestpair.New(nil), d.fits, d.limit}
}

// TestRunVehicleFitErrorReleasesWorkers runs a vehicle whose third fit
// fails, on whichever replica makes it, and one whose fits all succeed:
// RunVehicle must return what the reference does (the fit's error, or
// none), and only after every fitpool token has been handed back.
func TestRunVehicleFitErrorReleasesWorkers(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	id := f.AllVehicleIDs()[0]
	defer fitpool.SetWorkers(fitpool.Workers())
	for _, limit := range []int32{2, math.MaxInt32} {
		for _, workers := range []int{1, 2, 8} {
			fitpool.SetWorkers(workers)
			for name, drive := range map[string]func(string, []timeseries.Record, []obd.Event, func() core.Config) ([]detector.Alarm, error){
				"reference": runVehicleReference, "RunVehicle": core.RunVehicle,
			} {
				var fits atomic.Int32
				g := newGoldenRun()
				alarms, err := drive(id, f.Records, f.Events, func() core.Config {
					cfg := g.config(id, transform.Correlation, goldenCases[0].det, goldenCases[0].th)
					cfg.Detector = failingFits{closestpair.New(nil), &fits, limit}
					return cfg
				})
				if limit == math.MaxInt32 {
					if err != nil || fits.Load() < 3 {
						t.Fatalf("workers=%d %s: %d fits, error %v; want three or more and none", workers, name, fits.Load(), err)
					}
				} else if !errors.Is(err, errFit) || alarms != nil {
					t.Fatalf("workers=%d %s: %d alarms, error %v; want none and %v", workers, name, len(alarms), err, errFit)
				}
			}
			for i := 0; i < workers; i++ {
				if !fitpool.TryAcquire() {
					t.Fatalf("limit=%d workers=%d: %d of %d fitpool tokens free after the run", limit, workers, i, workers)
				}
			}
			for i := 0; i < workers; i++ {
				fitpool.Release()
			}
		}
	}
}

// withTailReset returns the fleet's stream plus a copy of vehicle src's,
// renamed tail, that ends with a service and then a stationary record:
// the filter drops the record, so the reset it applies falls after the
// vehicle's last sample.
func withTailReset(f *fleetsim.Fleet, src string) ([]timeseries.Record, []obd.Event, string, time.Time) {
	const tail = "veh-tail"
	records, events := slices.Clone(f.Records), slices.Clone(f.Events)
	var last timeseries.Record
	for _, r := range f.Records {
		if r.VehicleID == src {
			r.VehicleID = tail
			records = append(records, r)
			last = r
		}
	}
	for _, ev := range f.Events {
		if ev.VehicleID == src {
			ev.VehicleID = tail
			events = append(events, ev)
		}
	}
	resetAt := last.Time.Add(time.Minute)
	events = append(events, obd.Event{VehicleID: tail, Time: resetAt, Type: obd.EventService})
	last.Time = resetAt.Add(time.Minute)
	last.Values = [obd.NumPIDs]float64{}
	return append(records, last), events, tail, resetAt
}

// runParts hashes one vehicle's alarms, trace rows, calibration
// segments, resets and journal entries apart, all floats as
// Float64bits.
func runParts(t *testing.T, g *goldenRun, id string) map[string]string {
	t.Helper()
	if g.j.Total() > goldenJournal {
		t.Fatalf("journal overflowed: %d entries", g.j.Total())
	}
	parts := map[string]string{}
	sum := func(part string, write func(h hash.Hash)) {
		h := sha256.New()
		write(h)
		parts[part] = hex.EncodeToString(h.Sum(nil))
	}
	sum("alarms", func(h hash.Hash) {
		for _, a := range g.alarms[id] {
			h.Write([]byte(a.VehicleID + "\x00" + a.Feature + "\x00"))
			u64(h, uint64(a.Time.UnixNano()), uint64(a.Channel), math.Float64bits(a.Score), math.Float64bits(a.Threshold))
		}
	})
	tr := g.traces[id]
	sum("trace rows", func(h hash.Hash) {
		for i := range tr.Times {
			u64(h, uint64(tr.Times[i].UnixNano()), uint64(tr.Segments[i]))
			f64s(h, tr.Scores[i])
		}
	})
	sum("calibration segments", func(h hash.Hash) {
		for _, c := range tr.SegCalib {
			f64s(h, c.Means)
			f64s(h, c.Stds)
		}
	})
	sum("resets", func(h hash.Hash) {
		for _, r := range tr.Resets {
			u64(h, uint64(r.UnixNano()))
		}
	})
	sum("journal entries", func(h hash.Hash) {
		for _, e := range g.j.LastFor(id, goldenJournal) {
			h.Write([]byte(e.VehicleID + "\x00" + e.Technique + "\x00" + e.Transform + "\x00" + e.Feature + "\x00"))
			u64(h, uint64(e.Time.UnixNano()), uint64(e.Channel), math.Float64bits(e.Score), math.Float64bits(e.Threshold),
				uint64(e.RefLen), uint64(e.RefCap), e.RefAge, math.Float64bits(e.SinceLastEventS))
		}
	})
	return parts
}
