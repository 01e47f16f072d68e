package transform

import (
	"math"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

var base = time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC)

// emit returns the ready sample in a fresh vector.
func emit(tr Transformer) []float64 {
	x := make([]float64, tr.Dim())
	tr.EmitInto(x)
	return x
}

func rec(i int, vals [obd.NumPIDs]float64) timeseries.Record {
	return timeseries.Record{
		VehicleID: "v1",
		Time:      base.Add(time.Duration(i) * time.Minute),
		Values:    vals,
	}
}

// linkedRecord produces a record where rpm, speed and MAF rise together
// (strong positive correlation) and coolant is constant.
func linkedRecord(i int, x float64) timeseries.Record {
	var v [obd.NumPIDs]float64
	v[obd.EngineRPM] = 1000 + 100*x
	v[obd.Speed] = 30 + 3*x
	v[obd.CoolantTemp] = 88
	v[obd.IntakeTemp] = 25 + 0.1*x
	v[obd.MAPIntake] = 40 + 2*x
	v[obd.MAFAirFlowRate] = 10 + x
	return rec(i, v)
}

// TestKindStringsAndSets pins each paper kind's name and Kind value:
// the values are stored in checkpoints and encoded on the wire, so
// they must never change.
func TestKindStringsAndSets(t *testing.T) {
	for _, c := range []struct {
		kind  Kind
		value int
		name  string
	}{
		{Correlation, 0, "correlation"},
		{Raw, 1, "raw"},
		{Delta, 2, "delta"},
		{MeanAgg, 3, "mean"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if int(c.kind) != c.value {
				t.Errorf("Kind value = %d, want %d", int(c.kind), c.value)
			}
			if c.kind.String() != c.name {
				t.Errorf("String() = %q, want %q", c.kind.String(), c.name)
			}
			tr, err := New(c.kind, 10)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name() != c.name {
				t.Errorf("Name() = %q, want %q", tr.Name(), c.name)
			}
		})
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind string wrong")
	}
	if len(PaperKinds()) != 4 {
		t.Error("PaperKinds should have 4 entries")
	}
	if _, err := New(Kind(42), 10); err == nil {
		t.Error("unknown kind should error")
	}
}

// TestAbsFloor pins the absolute std floor per paper kind: 0.01 for
// the bounded correlation features and 0 otherwise.
func TestAbsFloor(t *testing.T) {
	want := map[Kind]float64{Correlation: 0.01, Raw: 0, MeanAgg: 0, Delta: 0}
	for _, kind := range PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			w, ok := want[kind]
			if !ok {
				t.Fatalf("no floor pinned for %v", kind)
			}
			if got := AbsFloor(kind.String()); got != w {
				t.Errorf("AbsFloor = %v, want %v", got, w)
			}
		})
	}
}

func TestAllTransformersContract(t *testing.T) {
	// Every transformer must: have consistent Dim/FeatureNames, not be
	// Ready before data, emit vectors of length Dim, and Reset cleanly.
	for _, k := range PaperKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			tr, err := New(k, 8)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name() != k.String() {
				t.Errorf("Name = %q", tr.Name())
			}
			if got := len(tr.FeatureNames()); got != tr.Dim() {
				t.Errorf("%d feature names for Dim %d", got, tr.Dim())
			}
			if tr.Ready() {
				t.Error("Ready before any data")
			}
			for i := 0; i < 20; i++ {
				tr.Collect(linkedRecord(i, float64(i%10)))
				if tr.Ready() {
					x := emit(tr)
					if len(x) != tr.Dim() {
						t.Fatalf("Emit len %d, want %d", len(x), tr.Dim())
					}
					for j, v := range x {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("feature %d is %v", j, v)
						}
					}
				}
			}
			tr.Reset()
			if tr.Ready() {
				t.Error("Ready after Reset")
			}
		})
	}
}

func TestCorrelationValues(t *testing.T) {
	tr, _ := New(Correlation, 10)
	for i := 0; i < 10; i++ {
		tr.Collect(linkedRecord(i, float64(i)))
	}
	if !tr.Ready() {
		t.Fatal("should be ready after window filled")
	}
	x := emit(tr)
	names := tr.FeatureNames()
	byName := map[string]float64{}
	for i, n := range names {
		byName[n] = x[i]
	}
	// rpm and speed rise together: correlation 1.
	if got := byName["corr(rpm,speed)"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("corr(rpm,speed) = %v, want 1", got)
	}
	// coolant constant: correlation defined as 0.
	if got := byName["corr(rpm,coolantTemp)"]; got != 0 {
		t.Errorf("corr(rpm,coolantTemp) = %v, want 0", got)
	}
	// Tumbling window: not ready again until another full window.
	if tr.Ready() {
		t.Error("tumbling window should not be ready right after Emit")
	}
	for i := 0; i < 9; i++ {
		tr.Collect(linkedRecord(i, float64(i)))
	}
	if tr.Ready() {
		t.Error("9 of 10 records should not fill the window")
	}
	tr.Collect(linkedRecord(9, 9))
	if !tr.Ready() {
		t.Error("10th record should fill the window")
	}
}

func TestCorrelationDim(t *testing.T) {
	tr, _ := New(Correlation, 5)
	// 6 PIDs -> 15 pairs.
	if tr.Dim() != 15 {
		t.Errorf("Dim = %d, want 15", tr.Dim())
	}
}

func TestRawPassThrough(t *testing.T) {
	tr, _ := New(Raw, 0)
	r := linkedRecord(0, 3)
	tr.Collect(r)
	if !tr.Ready() {
		t.Fatal("raw should be ready after one record")
	}
	x := emit(tr)
	for p := 0; p < int(obd.NumPIDs); p++ {
		if x[p] != r.Values[p] {
			t.Errorf("raw[%d] = %v, want %v", p, x[p], r.Values[p])
		}
	}
	if tr.Ready() {
		t.Error("raw should not be ready after Emit until next Collect")
	}
}

func TestDeltaValues(t *testing.T) {
	tr, _ := New(Delta, 0)
	tr.Collect(linkedRecord(0, 1))
	if tr.Ready() {
		t.Fatal("delta needs two records")
	}
	tr.Collect(linkedRecord(1, 3))
	if !tr.Ready() {
		t.Fatal("delta should be ready after two records")
	}
	x := emit(tr)
	// rpm delta: (1000+300)-(1000+100) = 200.
	if math.Abs(x[obd.EngineRPM]-200) > 1e-9 {
		t.Errorf("delta rpm = %v, want 200", x[obd.EngineRPM])
	}
	if math.Abs(x[obd.Speed]-6) > 1e-9 {
		t.Errorf("delta speed = %v, want 6", x[obd.Speed])
	}
	// After Reset, needs two records again.
	tr.Reset()
	tr.Collect(linkedRecord(2, 5))
	if tr.Ready() {
		t.Error("delta ready after reset with one record")
	}
}

func TestMeanValues(t *testing.T) {
	tr, _ := New(MeanAgg, 4)
	for i := 0; i < 4; i++ {
		var v [obd.NumPIDs]float64
		v[obd.Speed] = float64(i * 10) // 0,10,20,30 -> mean 15
		v[obd.CoolantTemp] = 88
		tr.Collect(rec(i, v))
	}
	x := emit(tr)
	if x[obd.Speed] != 15 {
		t.Errorf("mean speed = %v, want 15", x[obd.Speed])
	}
	if x[obd.CoolantTemp] != 88 {
		t.Errorf("mean coolant = %v, want 88", x[obd.CoolantTemp])
	}
}
