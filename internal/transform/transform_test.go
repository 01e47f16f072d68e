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

func TestKindStringsAndSets(t *testing.T) {
	want := map[Kind]string{
		Correlation: "correlation", Raw: "raw", Delta: "delta",
		MeanAgg: "mean", Histogram: "histogram", Spectral: "spectral",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind string wrong")
	}
	if len(PaperKinds()) != 4 {
		t.Error("PaperKinds should have 4 entries")
	}
	if len(AllKinds()) != 6 {
		t.Error("AllKinds should have 6 entries")
	}
	if _, err := New(Kind(42), 10); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestAllTransformersContract(t *testing.T) {
	// Every transformer must: have consistent Dim/FeatureNames, not be
	// Ready before data, emit vectors of length Dim, and Reset cleanly.
	for _, k := range AllKinds() {
		tr, err := New(k, 8)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if tr.Name() != k.String() {
			t.Errorf("%v: Name = %q", k, tr.Name())
		}
		if got := len(tr.FeatureNames()); got != tr.Dim() {
			t.Errorf("%v: %d feature names for Dim %d", k, got, tr.Dim())
		}
		if tr.Ready() {
			t.Errorf("%v: Ready before any data", k)
		}
		for i := 0; i < 20; i++ {
			tr.Collect(linkedRecord(i, float64(i%10)))
			if tr.Ready() {
				x := emit(tr)
				if len(x) != tr.Dim() {
					t.Fatalf("%v: Emit len %d, want %d", k, len(x), tr.Dim())
				}
				for j, v := range x {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%v: feature %d is %v", k, j, v)
					}
				}
			}
		}
		tr.Reset()
		if tr.Ready() {
			t.Errorf("%v: Ready after Reset", k)
		}
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

func TestHistogramValues(t *testing.T) {
	tr, _ := New(Histogram, 10)
	// All speed values at envelope minimum: first speed bin gets mass 1.
	for i := 0; i < 10; i++ {
		var v [obd.NumPIDs]float64
		v[obd.Speed] = 0
		v[obd.CoolantTemp] = 88
		tr.Collect(rec(i, v))
	}
	x := emit(tr)
	names := tr.FeatureNames()
	var sum float64
	for i, n := range names {
		if n == "hist(speed)[0]" && x[i] != 1 {
			t.Errorf("hist(speed)[0] = %v, want 1", x[i])
		}
		if len(n) >= 10 && n[:11] == "hist(speed)" {
			sum += x[i]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("speed histogram mass = %v, want 1", sum)
	}
}

func TestSpectralShape(t *testing.T) {
	tr, _ := New(Spectral, 32)
	// Slow sinusoidal speed: low-band energy dominates.
	for i := 0; i < 32; i++ {
		var v [obd.NumPIDs]float64
		v[obd.Speed] = 50 + 20*math.Sin(2*math.Pi*float64(i)/32)
		tr.Collect(rec(i, v))
	}
	x := emit(tr)
	names := tr.FeatureNames()
	for i, n := range names {
		if n == "spec(speed)[0]" && x[i] < 0.9 {
			t.Errorf("spec(speed)[0] = %v, want ~1", x[i])
		}
	}
}
