package fleet

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// TestAsyncFitsMatchSyncFits is the asynchronous-refit determinism
// guarantee: parking a fitting vehicle's envelopes and replaying them
// after the fit must yield exactly the alarms of core.RunVehicle's
// inline fits, for any shard count.
func TestAsyncFitsMatchSyncFits(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	if len(want) == 0 {
		t.Fatal("test fleet produced no alarms; equivalence check is vacuous")
	}
	for _, shards := range []int{1, 3} {
		got, _ := engineAlarms(t, f, shards, 7)
		requireSameAlarms(t, fmt.Sprintf("shards=%d", shards), got, want)
	}
}

// failingFitDetector scores nothing and fails its first Fit — the
// asynchronous error path must drop the vehicle exactly like an inline
// fit error, without wedging the shard.
type failingFitDetector struct{}

var errFitBoom = errors.New("fit boom")

func (failingFitDetector) Name() string          { return "failing" }
func (failingFitDetector) Fit([][]float64) error { return errFitBoom }
func (failingFitDetector) Score([]float64) ([]float64, error) {
	return nil, detector.ErrNotFitted
}
func (failingFitDetector) Channels() int          { return 1 }
func (failingFitDetector) ChannelNames() []string { return []string{"x"} }

// TestAsyncFitErrorDropsVehicle checks an asynchronous fit failure is
// surfaced through Err and the engine still drains cleanly.
func TestAsyncFitErrorDropsVehicle(t *testing.T) {
	f := smallFleet()
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) {
			cfg := testConfig()
			cfg.Detector = failingFitDetector{}
			return cfg, nil
		},
		Shards:    2,
		batchSize: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	if err := e.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}
	err = e.Close()
	wait()
	if !errors.Is(err, errFitBoom) {
		t.Fatalf("Close error = %v, want wrapped errFitBoom", err)
	}
	if e.Stats().Vehicles != 0 {
		t.Fatalf("failed vehicles still active: %+v", e.Stats())
	}
}

// refitHandler records the first value of every record it handles,
// raises a deferred fit on every every-th one (never when every is 0)
// and fails on the failAt-th (never when failAt is 0).
type refitHandler struct {
	every, failAt int
	seen          []float64
	pending       func() error
}

var errHandlerBoom = errors.New("handler boom")

func (h *refitHandler) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	h.seen = append(h.seen, r.Values[0])
	if len(h.seen) == h.failAt {
		return nil, errHandlerBoom
	}
	if h.every > 0 && len(h.seen)%h.every == 0 {
		h.pending = func() error { return nil }
	}
	return nil, nil
}
func (h *refitHandler) HandleEvent(obd.Event) {}
func (h *refitHandler) ScoredSamples() uint64 { return uint64(len(h.seen)) }
func (h *refitHandler) SetDeferFits(bool)     {}
func (h *refitHandler) TakePendingFit() func() error {
	fit := h.pending
	h.pending = nil
	return fit
}

// parkingRig drives one vehicle of a stopped one-shard engine from the
// test goroutine: feed delivers the records valued from..to, and land
// waits for the fit in flight and lands it, replaying what was parked.
type parkingRig struct {
	e *Engine
	s *shard
	v *vehicle
}

func newParkingRig(t *testing.T, h *refitHandler) *parkingRig {
	t.Helper()
	e, err := newEngineStopped(Config{NewHandler: func(string) (Handler, error) { return h, nil }, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &parkingRig{e: e, s: e.shards[0]}
	r.v = e.firstContact(r.s, "veh")
	return r
}

func (r *parkingRig) feed(from, to int) {
	for x := from; x <= to; x++ {
		env := envelope{rec: timeseries.Record{VehicleID: "veh"}}
		env.rec.Values[0] = float64(x)
		r.e.deliver(r.s, r.v, &env)
	}
}

func (r *parkingRig) land() { r.e.finishFit(r.s, <-r.s.fitDone) }

func seq(from, to int) []float64 {
	var x []float64
	for v := from; v <= to; v++ {
		x = append(x, float64(v))
	}
	return x
}

// TestParkedReplayInPlace: the envelopes a fitting vehicle parks replay in
// arrival order from the one buffer the vehicle keeps. A replayed record
// that raises the next fit ends the replay with the rest still parked,
// ahead of what arrives during that fit, and a drained buffer is reused:
// once warm, parking and replaying allocate nothing.
func TestParkedReplayInPlace(t *testing.T) {
	h := &refitHandler{every: 5}
	r := newParkingRig(t, h)
	r.feed(1, 20) // record 5 raises a fit; 6..20 park
	r.land()      // 6..10 replay; record 10 raises the next fit
	if got := len(r.v.parked) - r.v.replayed; !r.v.fitting || got != 10 {
		t.Fatalf("after the first replay: fitting=%v, %d parked, want a fit in flight and 11..20 parked", r.v.fitting, got)
	}
	r.feed(21, 23)
	r.land() // 11..15
	r.land() // 16..20
	r.land() // 21..23, and the buffer drains
	if !slices.Equal(h.seen, seq(1, 23)) {
		t.Fatalf("handled %v, want 1..23 in order", h.seen)
	}
	if r.v.fitting || len(r.v.parked) != 0 || r.v.replayed != 0 || r.s.fitting != 0 {
		t.Fatalf("drained vehicle: fitting=%v parked=%d replayed=%d shard fitting=%d", r.v.fitting, len(r.v.parked), r.v.replayed, r.s.fitting)
	}

	// A fit in flight, 64 arrivals parked, the fit landing: a warm cycle
	// allocates nothing.
	h.every, h.seen = 0, make([]float64, 0, 1<<16)
	cycle := func() {
		r.v.fitting = true
		r.s.fitting++
		r.feed(1, 64)
		r.e.finishFit(r.s, fitResult{v: r.v})
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm park-and-replay cycle allocates %v times, want 0", allocs)
	}
}

// TestReplayHandlerErrorCountsEveryRecord: a handler that fails on the
// k-th replayed record drops its vehicle, and every parked record after
// it is still counted into RecordsIn, as records arriving for a dropped
// vehicle are.
func TestReplayHandlerErrorCountsEveryRecord(t *testing.T) {
	h := &refitHandler{every: 3}
	r := newParkingRig(t, h)
	r.feed(1, 3) // record 3 raises a fit
	h.every, h.failAt = 0, 3+4
	r.feed(4, 12) // parked
	r.land()      // 4, 5, 6 handled, 7 fails, 8..12 counted and dropped
	if got := r.e.Stats().RecordsIn; got != 12 {
		t.Fatalf("RecordsIn = %d, want 12", got)
	}
	if !slices.Equal(h.seen, seq(1, 7)) {
		t.Fatalf("handled %v, want 1..7", h.seen)
	}
	if err := r.e.Err(); !errors.Is(err, errHandlerBoom) {
		t.Fatalf("Err() = %v, want the handler's error", err)
	}
	if !r.v.skipped || len(r.v.parked) != 0 || r.s.vehicles.Load() != 0 {
		t.Fatalf("after the failure: skipped=%v parked=%d vehicles=%d", r.v.skipped, len(r.v.parked), r.s.vehicles.Load())
	}
}
