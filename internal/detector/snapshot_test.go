package detector_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/eval"
)

// makeRef builds a deterministic reference profile.
func makeRef(rng *rand.Rand, rows, dim int) [][]float64 {
	ref := make([][]float64, rows)
	for i := range ref {
		ref[i] = make([]float64, dim)
		for c := range ref[i] {
			ref[i][c] = rng.NormFloat64()
		}
	}
	return ref
}

// TestDetectorSnapshotRoundTrip fits every technique, scores a stream
// prefix, freezes the detector, restores the snapshot into a freshly
// constructed instance and verifies the restored detector scores the
// stream suffix bit-identically to the uninterrupted original. This is
// the per-technique leg of the checkpoint/restore contract: Fit-time
// randomness must not be needed at restore time, and streaming state
// (Grand's martingale, TranAD's window) must survive the round-trip.
func TestDetectorSnapshotRoundTrip(t *testing.T) {
	const (
		dim  = 5
		rows = 60
		pre  = 25
		post = 25
		seed = 42
	)
	techniques := append(eval.PaperTechniques(), eval.ExtensionTechniques()...)
	for _, tech := range techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ref := makeRef(rng, rows, dim)
			stream := makeRef(rng, pre+post, dim)

			orig, err := eval.NewDetector(tech, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := orig.Fit(ref); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			for _, x := range stream[:pre] {
				if _, err := orig.Score(x); err != nil {
					t.Fatalf("Score: %v", err)
				}
			}

			snap, err := orig.(checkpoint.Snapshotter).Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := eval.NewDetector(tech, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.(checkpoint.Snapshotter).Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got, want := restored.Channels(), orig.Channels(); got != want {
				t.Fatalf("Channels = %d, want %d", got, want)
			}

			for i, x := range stream[pre:] {
				a, err := orig.Score(x)
				if err != nil {
					t.Fatalf("original Score: %v", err)
				}
				b, err := restored.Score(x)
				if err != nil {
					t.Fatalf("restored Score: %v", err)
				}
				if len(a) != len(b) {
					t.Fatalf("channel count diverged: %d vs %d", len(a), len(b))
				}
				for c := range a {
					if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
						t.Fatalf("sample %d channel %d: original %v, restored %v", i, c, a[c], b[c])
					}
				}
			}
		})
	}
}

// TestDetectorSnapshotRejectsForeign feeds each technique's snapshot to
// every OTHER technique: all must refuse with an error, never panic or
// silently accept.
func TestDetectorSnapshotRejectsForeign(t *testing.T) {
	const dim, rows, seed = 5, 40, 7
	rng := rand.New(rand.NewSource(3))
	ref := makeRef(rng, rows, dim)
	techniques := append(eval.PaperTechniques(), eval.ExtensionTechniques()...)

	snaps := make(map[eval.Technique][]byte)
	for _, tech := range techniques {
		d, err := eval.NewDetector(tech, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Fit(ref); err != nil {
			t.Fatal(err)
		}
		snap, err := d.(checkpoint.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[tech] = snap
	}
	for _, victim := range techniques {
		for _, donor := range techniques {
			if victim == donor {
				continue
			}
			d, err := eval.NewDetector(victim, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.(checkpoint.Snapshotter).Restore(snaps[donor]); err == nil {
				t.Fatalf("%s accepted a %s snapshot", victim, donor)
			}
		}
	}
	// Truncated and empty payloads must also error, never panic.
	for _, tech := range techniques {
		d, _ := eval.NewDetector(tech, nil, seed)
		snap := snaps[tech]
		for _, cut := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
			if err := d.(checkpoint.Snapshotter).Restore(snap[:cut]); err == nil {
				t.Fatalf("%s accepted a snapshot truncated to %d bytes", tech, cut)
			}
		}
	}
}

// TestUnfittedDetectorSnapshotRoundTrip checks the unfitted state also
// round-trips: a snapshot taken before Fit restores to a detector that
// still refuses to score.
func TestUnfittedDetectorSnapshotRoundTrip(t *testing.T) {
	techniques := append(eval.PaperTechniques(), eval.ExtensionTechniques()...)
	for _, tech := range techniques {
		d, err := eval.NewDetector(tech, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := d.(checkpoint.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s unfitted Snapshot: %v", tech, err)
		}
		restored, _ := eval.NewDetector(tech, nil, 1)
		if err := restored.(checkpoint.Snapshotter).Restore(snap); err != nil {
			t.Fatalf("%s unfitted Restore: %v", tech, err)
		}
		if _, err := restored.Score(make([]float64, 5)); err == nil {
			t.Fatalf("%s scored after restoring an unfitted snapshot", tech)
		}
	}
}
