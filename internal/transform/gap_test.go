package transform

import (
	"fmt"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// TestGapGuardResetsWindows verifies that windowed transformers refuse
// to correlate across trip gaps: a window interrupted by a >45-minute
// gap restarts instead of mixing two trips.
func TestGapGuardResetsWindows(t *testing.T) {
	for _, kind := range []Kind{Correlation, MeanAgg} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := New(kind, 8)
			if err != nil {
				t.Fatal(err)
			}
			// 7 records, one short of a full window.
			for i := 0; i < 7; i++ {
				tr.Collect(rec(i, valuesAt(float64(i))))
			}
			if tr.Ready() {
				t.Fatal("ready with 7 of 8 records")
			}
			// The 8th record arrives two hours later: the window must
			// reset, so it is still not ready.
			late := timeseries.Record{VehicleID: "v1", Time: base.Add(2 * time.Hour), Values: valuesAt(7)}
			tr.Collect(late)
			if tr.Ready() {
				t.Error("window bridged a 2-hour gap")
			}
			// 7 more contiguous records after the gap complete a clean
			// window.
			for i := 1; i <= 7; i++ {
				tr.Collect(timeseries.Record{VehicleID: "v1", Time: late.Time.Add(time.Duration(i) * time.Minute), Values: valuesAt(float64(i))})
			}
			if !tr.Ready() {
				t.Error("contiguous post-gap records should fill the window")
			}
		})
	}
}

// TestGapGuardResetsDelta verifies the delta transformer never emits a
// difference across a long gap (e.g. an overnight coolant drop).
func TestGapGuardResetsDelta(t *testing.T) {
	tr, _ := New(Delta, 0)
	tr.Collect(rec(0, valuesAt(1)))
	tr.Collect(rec(1, valuesAt(2)))
	if !tr.Ready() {
		t.Fatal("delta should be ready after two contiguous records")
	}
	emit(tr)
	// Overnight gap: the next record must NOT pair with the previous one.
	overnight := timeseries.Record{VehicleID: "v1", Time: base.Add(14 * time.Hour), Values: valuesAt(50)}
	tr.Collect(overnight)
	if tr.Ready() {
		t.Fatal("delta bridged an overnight gap")
	}
	tr.Collect(timeseries.Record{VehicleID: "v1", Time: overnight.Time.Add(time.Minute), Values: valuesAt(51)})
	if !tr.Ready() {
		t.Fatal("delta should resume after two post-gap records")
	}
	x := emit(tr)
	// The difference reflects the post-gap pair (51-50), not (50-2).
	if got := x[obd.Speed]; got != valuesAt(51)[obd.Speed]-valuesAt(50)[obd.Speed] {
		t.Errorf("delta after gap = %v, want the post-gap difference", got)
	}
}

// TestResetClearsGapState verifies Reset also forgets the last-seen
// timestamp in every gap-guarded kind, so a fresh stream starting long
// after the old one is not treated as a gap.
func TestResetClearsGapState(t *testing.T) {
	for _, kind := range []Kind{Correlation, MeanAgg, Delta} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			tr, _ := New(kind, 4)
			tr.Collect(rec(0, valuesAt(1)))
			tr.Reset()
			if last := gapClock(tr); !last.IsZero() {
				t.Fatalf("gap clock after Reset = %v, want the zero time", last)
			}
			// New stream 3 hours later: 4 contiguous records must fill
			// the window (delta needs two of them).
			start := base.Add(3 * time.Hour)
			for i := 0; i < 4; i++ {
				tr.Collect(timeseries.Record{VehicleID: "v1", Time: start.Add(time.Duration(i) * time.Minute), Values: valuesAt(float64(i))})
			}
			if !tr.Ready() {
				t.Error("post-Reset stream should fill the window without a phantom gap")
			}
		})
	}
}

// gapClock returns a gap-guarded transformer's last accepted record
// time.
func gapClock(tr Transformer) time.Time {
	switch tr := tr.(type) {
	case *corrTransformer:
		return tr.gap.last
	case *meanTransformer:
		return tr.gap.last
	case *deltaTransformer:
		return tr.gap.last
	}
	panic(fmt.Sprintf("%T has no gap guard", tr))
}

func valuesAt(x float64) [obd.NumPIDs]float64 {
	var v [obd.NumPIDs]float64
	v[obd.EngineRPM] = 1000 + 50*x
	v[obd.Speed] = 30 + x
	v[obd.CoolantTemp] = 88
	v[obd.IntakeTemp] = 25
	v[obd.MAPIntake] = 50 + x
	v[obd.MAFAirFlowRate] = 10 + 0.5*x
	return v
}
