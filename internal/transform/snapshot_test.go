package transform

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
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

// TestSnapshotRoundTripPaperKinds freezes each transformer at several
// points of the stream, restores it into a fresh instance and verifies
// the restored one emits bit-identical vectors for the remainder of the
// stream.
func TestSnapshotRoundTripPaperKinds(t *testing.T) {
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

	// The window is 12. The splits freeze a transformer before any
	// record, before its first window fills, mid-window (137 = 11×12 +
	// 5), right after an emit (144 = 12×12) and just past the trip gap.
	splits := []int{0, 5, 137, 144, 253}
	for _, kind := range PaperKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			full, err := New(kind, 12)
			if err != nil {
				t.Fatal(err)
			}
			wantAll := emitAll(full, records)
			for _, split := range splits {
				split := split
				t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
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
		})
	}
}

// TestSnapshotCanonical checks that restoring a snapshot and taking it
// again gives back the same bytes, wherever in the stream it was taken:
// a resumed vehicle checkpoints exactly as an uninterrupted one.
func TestSnapshotCanonical(t *testing.T) {
	for _, kind := range PaperKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 12, 19, 31} {
				snap := snapshotAfter(t, kind, 12, n)
				tr, _ := New(kind, 12)
				if err := tr.Restore(snap); err != nil {
					t.Fatalf("after %d records: Restore: %v", n, err)
				}
				again, err := tr.Snapshot()
				if err != nil {
					t.Fatalf("after %d records: Snapshot: %v", n, err)
				}
				if !bytes.Equal(again, snap) {
					t.Errorf("after %d records: re-snapshot differs from the restored snapshot", n)
				}
			}
		})
	}
}

// kindTag is each paper kind's snapshot payload tag.
var kindTag = map[Kind]uint8{Correlation: corrTag, Raw: rawTag, Delta: deltaTag, MeanAgg: meanTag}

// snapshotAfter snapshots a kind transformer after n records of a
// contiguous stream, emitting whenever it is ready.
func snapshotAfter(t *testing.T, kind Kind, window, n int) []byte {
	t.Helper()
	tr, err := New(kind, window)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr.Collect(rec(i, valuesAt(float64(i))))
		if tr.Ready() && i%5 != 0 {
			emit(tr) // every fifth ready record is left pending
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// TestSnapshotRejectsWrongKind ensures payload tags keep a snapshot
// from one transformer kind out of another, and that a snapshot that
// does not fit the configuration is refused.
func TestSnapshotRejectsWrongKind(t *testing.T) {
	t.Run("cross-kind", func(t *testing.T) {
		for _, from := range PaperKinds() {
			snap := snapshotAfter(t, from, 12, 20)
			for _, into := range PaperKinds() {
				if into == from {
					continue
				}
				from, into := from, into
				t.Run(fmt.Sprintf("%s_into_%s", from, into), func(t *testing.T) {
					tr, _ := New(into, 12)
					err := tr.Restore(snap)
					want := fmt.Sprintf("tag %d, want %d", kindTag[from], kindTag[into])
					if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
						t.Errorf("err = %v, want ErrBadSnapshot naming %q", err, want)
					}
				})
			}
		}
	})
	// A different window is a different configuration: refuse too.
	t.Run("window", func(t *testing.T) {
		t.Run("correlation", func(t *testing.T) {
			corr24, _ := New(Correlation, 24)
			if err := corr24.Restore(snapshotAfter(t, Correlation, 12, 5)); err == nil {
				t.Fatal("window-24 correlation accepted a window-12 snapshot")
			}
		})
		// A mean snapshot holding more records than the window is
		// refused, not silently cut down to the newest ones.
		t.Run("mean", func(t *testing.T) {
			mean12, _ := New(MeanAgg, 12)
			err := mean12.Restore(snapshotAfter(t, MeanAgg, 24, 20))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("window-12 mean restoring 20 records: err = %v, want ErrBadSnapshot", err)
			}
		})
	})
	// Corrupt payloads must error, never panic: every strict prefix of
	// a snapshot, nil, and a snapshot with a trailing byte.
	t.Run("corrupt", func(t *testing.T) {
		for _, kind := range PaperKinds() {
			kind := kind
			t.Run(kind.String(), func(t *testing.T) {
				snap := snapshotAfter(t, kind, 12, 17)
				tr, _ := New(kind, 12)
				for n := 0; n < len(snap); n++ {
					if err := tr.Restore(snap[:n]); err == nil {
						t.Fatalf("%d-byte prefix of a %d-byte snapshot accepted", n, len(snap))
					}
				}
				if err := tr.Restore(nil); err == nil {
					t.Error("nil snapshot accepted")
				}
				if err := tr.Restore(append(snap[:len(snap):len(snap)], 0)); err == nil {
					t.Error("snapshot with a trailing byte accepted")
				}
			})
		}
	})
	// A hostile record count errors before anything is allocated for
	// it.
	t.Run("hostile-count", func(t *testing.T) {
		t.Run("mean", func(t *testing.T) {
			var b checkpoint.Buf
			b.Uint8(meanTag)
			b.Time(time.Time{})
			b.Int(1 << 50)
			mean12, _ := New(MeanAgg, 12)
			if err := mean12.Restore(b.Bytes()); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("mean restoring a record count of 1<<50: err = %v, want ErrBadSnapshot", err)
			}
		})
		t.Run("correlation", func(t *testing.T) {
			var b checkpoint.Buf
			b.Uint8(corrTag)
			b.Int(12)
			b.Int(1 << 50)
			b.Time(time.Time{})
			for i := 0; i < 2*int(obd.NumPIDs)+int(obd.NumPIDs)*(int(obd.NumPIDs)+1)/2; i++ {
				b.Float64(0) // shift, sum and the upper triangle of prod
			}
			corr12, _ := New(Correlation, 12)
			if err := corr12.Restore(b.Bytes()); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("correlation restoring a record count of 1<<50: err = %v, want ErrBadSnapshot", err)
			}
		})
		t.Run("delta", func(t *testing.T) {
			var b checkpoint.Buf
			b.Uint8(deltaTag)
			b.Int64(-1)
			b.Bool(false)
			b.Time(time.Time{})
			for i := 0; i < 2*int(obd.NumPIDs); i++ {
				b.Float64(0) // prev and cur
			}
			delta, _ := New(Delta, 0)
			if err := delta.Restore(b.Bytes()); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("delta restoring a sample count of -1: err = %v, want ErrBadSnapshot", err)
			}
		})
	})
	// Tags 5 and 6 were the removed histogram and spectral transforms,
	// whose snapshots had the mean's layout, and tag 1 the correlation
	// layout with an eviction ring: every kind refuses them by name.
	t.Run("retired-tag", func(t *testing.T) {
		snap := snapshotAfter(t, MeanAgg, 12, 9)
		for _, tag := range []uint8{1, 5, 6} {
			tag := tag
			retired := append([]byte{tag}, snap[1:]...)
			t.Run(fmt.Sprintf("tag=%d", tag), func(t *testing.T) {
				for _, kind := range PaperKinds() {
					kind := kind
					t.Run(kind.String(), func(t *testing.T) {
						tr, _ := New(kind, 12)
						err := tr.Restore(retired)
						if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), fmt.Sprintf("tag %d", tag)) {
							t.Errorf("err = %v, want ErrBadSnapshot naming tag %d", err, tag)
						}
					})
				}
			})
		}
	})
}

// TestCorrOverflowStartsNextWindow is the property test for collecting
// past a full window without emitting: that record starts the next
// window, so after n un-emitted records the running moments must equal a
// two-pass Pearson over exactly the last (n-1) mod window + 1 of them,
// for arbitrary streams and overflow amounts.
func TestCorrOverflowStartsNextWindow(t *testing.T) {
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
				// no-variance → r = 0 convention is exercised across
				// window restarts as well.
				for p := range records[i].Values {
					records[i].Values[p] = 42
				}
			}
			c.Collect(records[i])
		}
		held := (n-1)%window + 1
		if c.Ready() != (held == window) {
			t.Fatalf("trial %d: Ready = %v holding %d of a %d-record window", trial, c.Ready(), held, window)
		}
		got := emit(c)

		// Oracle: two-pass Pearson over the held records only.
		kept := records[n-held:]
		cols := make([][]float64, obd.NumPIDs)
		for p := range cols {
			cols[p] = make([]float64, held)
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
// transformer after it has collected past a full window without
// emitting and checks the restored instance continues bit-identically
// through further window restarts and the final emit.
func TestCorrSnapshotMidOverflowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	base := time.Date(2023, 6, 1, 7, 0, 0, 0, time.UTC)
	for trial := 0; trial < 20; trial++ {
		window := 4 + rng.Intn(8)
		preRoll := window + 1 + rng.Intn(2*window) // guaranteed past a full window
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
