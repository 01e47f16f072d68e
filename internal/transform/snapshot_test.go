package transform

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// randRecord builds a record with plausible in-envelope PID values at
// one-minute cadence so the gap guard and filters stay out of the way.
func randRecord(rng *rand.Rand, t time.Time) timeseries.Record {
	rec := timeseries.Record{VehicleID: "v1", Time: t}
	for p := 0; p < int(obd.NumPIDs); p++ {
		env := obd.Envelope(obd.PID(p))
		rec.Values[p] = env.Min + rng.Float64()*(env.Max-env.Min)
	}
	return rec
}

// emitAll drives tr over records, emitting whenever ready, and returns
// every emitted vector.
func emitAll(tr Transformer, records []timeseries.Record) [][]float64 {
	var out [][]float64
	for _, r := range records {
		tr.Collect(r)
		if tr.Ready() {
			out = append(out, emit(tr))
		}
	}
	return out
}

// TestSnapshotRoundTripAllKinds freezes each transformer mid-stream,
// restores it into a fresh instance and verifies the restored one emits
// bit-identical vectors for the remainder of the stream.
func TestSnapshotRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC)
	var records []timeseries.Record
	for i := 0; i < 400; i++ {
		// A mid-stream trip gap exercises the gap-guard clock in the
		// snapshot.
		gap := time.Duration(0)
		if i >= 250 {
			gap = 2 * time.Hour
		}
		records = append(records, randRecord(rng, base.Add(time.Duration(i)*time.Minute+gap)))
	}

	for _, kind := range AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// Split at an index that leaves windowed transformers
			// mid-window (window is 12; 137 = 11×12 + 5).
			const split = 137
			full, err := New(kind, 12)
			if err != nil {
				t.Fatal(err)
			}
			wantAll := emitAll(full, records)

			first, err := New(kind, 12)
			if err != nil {
				t.Fatal(err)
			}
			got := emitAll(first, records[:split])
			snap, err := first.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			second, err := New(kind, 12)
			if err != nil {
				t.Fatal(err)
			}
			if err := second.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			got = append(got, emitAll(second, records[split:])...)

			if len(got) != len(wantAll) {
				t.Fatalf("emitted %d vectors, want %d", len(got), len(wantAll))
			}
			for i := range got {
				for c := range got[i] {
					if math.Float64bits(got[i][c]) != math.Float64bits(wantAll[i][c]) {
						t.Fatalf("sample %d channel %d: resumed %v != uninterrupted %v",
							i, c, got[i][c], wantAll[i][c])
					}
				}
			}
		})
	}
}

// TestSnapshotRejectsWrongKind ensures payload tags keep a snapshot
// from one transformer kind out of another.
func TestSnapshotRejectsWrongKind(t *testing.T) {
	corr, _ := New(Correlation, 12)
	delta, _ := New(Delta, 12)
	snap, err := corr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.Restore(snap); err == nil {
		t.Fatal("delta transformer accepted a correlation snapshot")
	}
	// A different window is a different configuration: refuse too.
	corr24, _ := New(Correlation, 24)
	if err := corr24.Restore(snap); err == nil {
		t.Fatal("window-24 correlation accepted a window-12 snapshot")
	}
	// Corrupt payloads must error, never panic.
	if err := corr.Restore(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := corr.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestCorrSlidingOverflowMatchesTwoPass is the property test for the
// sliding-overflow path: pushing past a full window without emitting
// must keep the running moments equal to a two-pass Pearson over
// exactly the retained window, for arbitrary streams and overflow
// amounts.
func TestCorrSlidingOverflowMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2023, 5, 1, 9, 0, 0, 0, time.UTC)
	for trial := 0; trial < 60; trial++ {
		window := 3 + rng.Intn(10)
		overflow := 1 + rng.Intn(3*window)
		n := window + overflow
		c := newCorrelation(window)
		records := make([]timeseries.Record, n)
		for i := range records {
			records[i] = randRecord(rng, base.Add(time.Duration(i)*time.Minute))
			if trial%5 == 0 {
				// Constant-signal trials: every PID pinned, so the
				// no-variance → r = 0 convention is exercised through
				// eviction as well.
				for p := range records[i].Values {
					records[i].Values[p] = 42
				}
			}
			c.Collect(records[i])
		}
		if !c.Ready() {
			t.Fatalf("trial %d: transformer not ready after %d records", trial, n)
		}
		got := emit(c)

		// Oracle: two-pass Pearson over the last `window` records only.
		kept := records[n-window:]
		cols := make([][]float64, obd.NumPIDs)
		for p := range cols {
			cols[p] = make([]float64, window)
			for i, r := range kept {
				cols[p][i] = r.Values[p]
			}
		}
		k := 0
		for i := 0; i < int(obd.NumPIDs); i++ {
			for j := i + 1; j < int(obd.NumPIDs); j++ {
				want, err := mat.Pearson(cols[i], cols[j])
				if err != nil || math.IsNaN(want) {
					want = 0 // no-variance convention
				}
				if math.Abs(got[k]-want) > 1e-9 {
					t.Fatalf("trial %d (window=%d overflow=%d) pair (%d,%d): running %v vs two-pass %v",
						trial, window, overflow, i, j, got[k], want)
				}
				k++
			}
		}
	}
}

// TestCorrSnapshotMidOverflowRoundTrip freezes the correlation
// transformer after the eviction path has run (full window, no emit)
// and checks the restored instance continues bit-identically through
// further evictions and the eventual emit.
func TestCorrSnapshotMidOverflowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	base := time.Date(2023, 6, 1, 7, 0, 0, 0, time.UTC)
	for trial := 0; trial < 20; trial++ {
		window := 4 + rng.Intn(8)
		preRoll := window + 1 + rng.Intn(2*window) // guaranteed past full: eviction has run
		tail := 1 + rng.Intn(2*window)
		records := make([]timeseries.Record, preRoll+tail)
		for i := range records {
			records[i] = randRecord(rng, base.Add(time.Duration(i)*time.Minute))
		}

		orig := newCorrelation(window)
		for _, r := range records[:preRoll] {
			orig.Collect(r)
		}
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored := newCorrelation(window)
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}

		for _, r := range records[preRoll:] {
			orig.Collect(r)
			restored.Collect(r)
		}
		if orig.Ready() != restored.Ready() {
			t.Fatalf("trial %d: Ready diverged", trial)
		}
		a, b := emit(orig), emit(restored)
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("trial %d channel %d: original %v != restored %v", trial, k, a[k], b[k])
			}
		}
	}
}
