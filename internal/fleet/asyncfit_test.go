package fleet

import (
	"errors"
	"fmt"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
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
