package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/transform"
)

// goldenCases are the detectors the golden runs over each transform:
// closest-pair and Grand score a sample at a time, TranAD through its
// run scorer.
var goldenCases = []struct {
	name string
	det  func(names []string) detector.Detector
	th   func() thresholds.Thresholder
}{
	{"closest-pair", func(names []string) detector.Detector { return closestpair.New(names) },
		func() thresholds.Thresholder { return thresholds.NewSelfTuning(12) }},
	{"grand", func([]string) detector.Detector { return grand.New(grand.Config{}) },
		func() thresholds.Thresholder { return thresholds.NewConstant(0.6) }},
	{"tranad", func([]string) detector.Detector {
		return tranad.New(tranad.Config{Window: 8, DModel: 12, Heads: 2, Epochs: 1, MaxWindows: 64, Seed: 1})
	}, func() thresholds.Thresholder { return thresholds.NewSelfTuning(3) }},
}

// goldenRun is one pass of the small fleet through one configuration:
// every vehicle's alarms, trace and journal entries.
type goldenRun struct {
	mu     sync.Mutex
	traces map[string]*core.Trace
	alarms map[string][]detector.Alarm
	o      *obs.Observer
	j      *obs.Journal
}

const goldenJournal = 1 << 16

func newGoldenRun() *goldenRun {
	j := obs.NewJournal(goldenJournal)
	return &goldenRun{
		traces: map[string]*core.Trace{},
		alarms: map[string][]detector.Alarm{},
		o:      obs.NewObserver(obs.NewRegistry(), obs.ObserverConfig{Journal: j}),
		j:      j,
	}
}

// config builds a vehicle's pipeline configuration with its own trace.
// Safe for concurrent use across vehicles.
func (g *goldenRun) config(id string, kind transform.Kind, det func([]string) detector.Detector, th func() thresholds.Thresholder) core.Config {
	tr, err := transform.New(kind, 12)
	if err != nil {
		panic(err)
	}
	trace := &core.Trace{}
	g.mu.Lock()
	g.traces[id] = trace
	g.mu.Unlock()
	return core.Config{
		Transformer:   tr,
		Detector:      det(tr.FeatureNames()),
		Thresholder:   th(),
		ProfileLength: 50,
		DensityM:      2,
		DensityK:      4,
		Trace:         trace,
		Observer:      g.o,
	}
}

// digest hashes every vehicle's alarms, trace rows, calibration segments
// and the journal fields that do not depend on the clock or on how
// vehicles interleave, in vehicle order, all floats as Float64bits.
func (g *goldenRun) digest(t *testing.T, ids []string) string {
	t.Helper()
	if g.j.Total() > goldenJournal {
		t.Fatalf("journal overflowed: %d entries", g.j.Total())
	}
	if g.j.Total() == 0 {
		t.Fatal("no alarms: the golden has no teeth")
	}
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		alarms := g.alarms[id]
		u64(h, uint64(len(alarms)))
		for _, a := range alarms {
			h.Write([]byte(a.VehicleID + "\x00" + a.Feature + "\x00"))
			u64(h, uint64(a.Time.UnixNano()), uint64(a.Channel), math.Float64bits(a.Score), math.Float64bits(a.Threshold))
		}
		tr := g.traces[id]
		u64(h, uint64(len(tr.Times)), uint64(len(tr.Resets)), uint64(len(tr.SegCalib)))
		for i := range tr.Times {
			u64(h, uint64(tr.Times[i].UnixNano()), uint64(tr.Segments[i]))
			f64s(h, tr.Scores[i])
			f64s(h, tr.Thresholds[i])
			if tr.Alarmed[i] {
				u64(h, 1)
			} else {
				u64(h, 0)
			}
		}
		for _, r := range tr.Resets {
			u64(h, uint64(r.UnixNano()))
		}
		for _, c := range tr.SegCalib {
			f64s(h, c.Means)
			f64s(h, c.Stds)
		}
		entries := g.j.LastFor(id, goldenJournal)
		u64(h, uint64(len(entries)))
		for _, e := range entries {
			h.Write([]byte(e.VehicleID + "\x00" + e.Technique + "\x00" + e.Transform + "\x00" + e.Feature + "\x00"))
			u64(h, uint64(e.Time.UnixNano()), uint64(e.Channel), math.Float64bits(e.Score), math.Float64bits(e.Threshold),
				uint64(e.RefLen), uint64(e.RefCap), e.RefAge, math.Float64bits(e.SinceLastEventS))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func u64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func f64s(h hash.Hash, xs []float64) {
	u64(h, uint64(len(xs)))
	for _, x := range xs {
		u64(h, math.Float64bits(x))
	}
}

// TestPipelineGolden pins what the streaming pipeline computes for the
// small fleet, for closest-pair, Grand and TranAD over the raw and
// correlation transforms with an observer attached: the SHA-256 of every
// vehicle's alarms, trace rows, calibration segments and deterministic
// journal fields must match testdata/pipeline.sha256, both through
// core.RunVehicle (inline fits) and through a fleet engine (deferred
// fits landing while records queue behind them). The digests were
// written before the pipeline's inline path was folded into its queue
// and must never be regenerated from the code under test.
func TestPipelineGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/pipeline.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = digest
	}
	f := fleetsim.Generate(fleetsim.SmallConfig())
	ids := f.AllVehicleIDs()
	slices.Sort(ids)
	for _, kind := range []transform.Kind{transform.Raw, transform.Correlation} {
		for _, c := range goldenCases {
			name := c.name + "/" + kind.String()
			t.Run(name, func(t *testing.T) {
				inline := newGoldenRun()
				for _, id := range ids {
					a, err := core.RunVehicle(id, f.Records, f.Events, func() core.Config { return inline.config(id, kind, c.det, c.th) })
					if err != nil {
						t.Fatal(err)
					}
					inline.alarms[id] = a
				}
				if got := inline.digest(t, ids); got != want[name] {
					t.Errorf("RunVehicle digest = %s, want %s", got, want[name])
				}

				deferred := newGoldenRun()
				e, err := fleet.NewEngine(fleet.Config{
					NewConfig: func(id string) (core.Config, error) { return deferred.config(id, kind, c.det, c.th), nil },
					Shards:    2,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for a := range e.Alarms() {
						deferred.alarms[a.VehicleID] = append(deferred.alarms[a.VehicleID], a)
					}
				}()
				if err := e.Replay(f.Records, f.Events); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				<-done
				if got := deferred.digest(t, ids); got != want[name] {
					t.Errorf("fleet engine digest = %s, want %s", got, want[name])
				}
			})
		}
	}
}
