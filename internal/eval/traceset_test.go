package eval

import (
	"reflect"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/transform"
)

func TestCollectTraceSetAndEvaluate(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	spec := GridSpec{
		Records:  f.Records,
		Events:   f.Events,
		Settings: map[string][]string{"s": f.EventVehicleIDs()},
	}
	ts, err := CollectTraceSet(spec, ClosestPair, transform.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	// Alarms are daily-consolidated: at most one per vehicle-day.
	alarms := ts.Alarms(10)
	seen := map[string]bool{}
	for _, a := range alarms {
		key := a.VehicleID + a.Time.UTC().Truncate(24*time.Hour).String()
		if seen[key] {
			t.Fatal("Alarms not daily-consolidated")
		}
		seen[key] = true
	}
	// Higher factor never yields more alarms.
	if len(ts.Alarms(40)) > len(alarms) {
		t.Error("alarm count should be non-increasing in the factor")
	}
	m := evaluateAt(ts, 10, f.EventVehicleIDs(), 30*24*time.Hour)
	if m.TotalFailures == 0 {
		t.Fatal("no failures in evaluation universe")
	}
}

// evaluateAt scores one threshold parameter against the recorded
// failures of the given vehicles at one prediction horizon, as the
// sweep scores each of its cells.
func evaluateAt(ts *TraceSet, param float64, vehicles []string, ph time.Duration) Metrics {
	return sum(byVehicle(ts.Alarms(param), Repairs(ts.spec.Events), ph), vehicles)
}

func TestBestJointParamIsSharedOptimum(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	spec := GridSpec{
		Records:  f.Records,
		Events:   f.Events,
		Settings: map[string][]string{"s": f.EventVehicleIDs()},
		Factors:  []float64{5, 10, 20},
		PHs:      []time.Duration{30 * 24 * time.Hour},
	}
	ts, err := CollectTraceSet(spec, ClosestPair, transform.Correlation)
	if err != nil {
		t.Fatal(err)
	}
	best, cells := ts.BestJointParam()
	if len(cells) != 1 {
		t.Fatalf("expected 1 cell, got %d", len(cells))
	}
	// The cell is what a replay at the chosen parameter scores (Table
	// 2's rows), and no other sweep value may beat it on mean F0.5.
	if m := evaluateAt(ts, best, f.EventVehicleIDs(), 30*24*time.Hour); m != cells[0].Best || cells[0].BestParam != best {
		t.Errorf("cell %+v at param %v, a replay scores %+v", cells[0], best, m)
	}
	bestScore := cells[0].Best.F05
	for _, p := range spec.Factors {
		if m := evaluateAt(ts, p, f.EventVehicleIDs(), 30*24*time.Hour); m.F05 > bestScore+1e-12 {
			t.Errorf("param %v (F05=%v) beats chosen %v (F05=%v)", p, m.F05, best, bestScore)
		}
	}
}

// TestTraceSetDeterministic holds a TraceSet's outputs to one order
// whatever Go's map iteration does: the vehicles of Alarms follow the
// sorted union of the settings, and BestJointParam's cells follow the
// settings in sorted name order (then spec.PHs). The one-vehicle setting
// has fewer failures than the other two, so a reordering of the cells
// is visible.
func TestTraceSetDeterministic(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	spec := GridSpec{
		Records: f.Records,
		Events:  f.Events,
		Settings: map[string][]string{
			"setting26": f.EventVehicleIDs(),
			"setting40": f.AllVehicleIDs(),
			"solo":      f.EventVehicleIDs()[:1],
		},
	}
	var wantAlarms []detector.Alarm
	var wantCells []Cell
	for i := 0; i < 20; i++ {
		ts, err := CollectTraceSet(spec, ClosestPair, transform.Correlation)
		if err != nil {
			t.Fatal(err)
		}
		alarms := ts.Alarms(10)
		_, cells := ts.BestJointParam()
		if i == 0 {
			if len(alarms) == 0 {
				t.Fatal("no alarms at factor 10: the order check would mean nothing")
			}
			wantAlarms, wantCells = alarms, cells
			continue
		}
		if !reflect.DeepEqual(alarms, wantAlarms) {
			t.Fatalf("run %d: Alarms(10) order differs from run 0", i)
		}
		if !reflect.DeepEqual(cells, wantCells) {
			t.Fatalf("run %d: BestJointParam cells differ from run 0:\n  %+v\n  %+v", i, cells, wantCells)
		}
	}
}
