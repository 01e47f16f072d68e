package thresholds

import (
	"testing"
)

func TestSelfTuningSnapshotRoundTrip(t *testing.T) {
	src := NewSelfTuning(1.2)
	src.Fit([][]float64{{1, 10}, {3, 30}, {2, 20}})
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSelfTuning(1.2)
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, want := dst.Values(), src.Values()
	if len(got) != len(want) {
		t.Fatalf("restored %d channels, want %d", len(got), len(want))
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("channel %d: restored threshold %v, want %v", c, got[c], want[c])
		}
	}
}

func TestSelfTuningUnfittedSnapshotRoundTrip(t *testing.T) {
	snap, err := NewSelfTuning(2).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSelfTuning(2)
	dst.Fit([][]float64{{5}})
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if dst.values != nil {
		t.Fatal("restoring an unfitted snapshot should clear fitted state")
	}
}

func TestConstantSnapshotRoundTrip(t *testing.T) {
	src := NewConstant(0.75)
	src.Calibrate([][]float64{{1, 2, 3}}, 0)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewConstant(0.75)
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := dst.Values(); len(got) != 3 || got[2] != 0.75 {
		t.Fatalf("Values = %v", got)
	}
	if dst.channels != src.channels {
		t.Fatalf("channels = %d, want %d", dst.channels, src.channels)
	}
}

func TestThresholdSnapshotTagMismatch(t *testing.T) {
	st := NewSelfTuning(1)
	st.Fit([][]float64{{1}})
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewConstant(1).Restore(snap); err == nil {
		t.Fatal("Constant accepted a SelfTuning snapshot")
	}
	if err := NewSelfTuning(1).Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := NewSelfTuning(1).Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}
