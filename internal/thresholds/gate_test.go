package thresholds

import (
	"testing"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// TestGate drives m-of-k gates over flag streams: pass[i] is whether the
// i-th flag passes.
func TestGate(t *testing.T) {
	const T, F = true, false
	for _, c := range []struct {
		name  string
		m, k  int
		flags []bool
		pass  []bool
	}{
		{"1-of-1 default passes every violation", 0, 0,
			[]bool{T, F, T, T}, []bool{T, F, T, T}},
		{"k below m is raised to m", 2, 1,
			[]bool{T, T, F, T}, []bool{F, T, F, F}},
		{"3-of-5 counts violations, not runs", 3, 5,
			[]bool{T, F, T, F, T, T}, []bool{F, F, F, F, T, T}},
		{"a quiet flag never passes", 1, 3,
			[]bool{T, F, F}, []bool{T, F, F}},
		{"wrap-around forgets flags older than k", 3, 5,
			[]bool{T, T, F, F, F, F, T, T, F, T}, []bool{F, F, F, F, F, F, F, F, F, T}},
		{"wrap-around keeps the last k", 2, 3,
			[]bool{T, F, F, T, F, T, F, F, T}, []bool{F, F, F, F, F, T, F, F, F}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGate(c.m, c.k)
			for i, v := range c.flags {
				if got := g.Admit(v); got != c.pass[i] {
					t.Errorf("flag %d (%v): passes %v, want %v", i, v, got, c.pass[i])
				}
			}
		})
	}
}

// TestGateReset: a reset gate behaves as a new one, and a snapshot
// restores the count it was taken at.
func TestGateReset(t *testing.T) {
	g := NewGate(2, 4)
	g.Admit(true)
	g.Reset()
	if g.Admit(true) {
		t.Fatal("one violation after a reset passed a 2-of-4 gate")
	}
	var b checkpoint.Buf
	g.Snapshot(&b)
	restored, ok := g.ReadSnapshot(checkpoint.NewRBuf(b.Bytes()))
	if !ok {
		t.Fatal("a gate's own snapshot did not restore")
	}
	if !restored.Admit(true) {
		t.Fatal("restored gate lost the violation before the snapshot")
	}
	other := NewGate(2, 5)
	if _, ok := other.ReadSnapshot(checkpoint.NewRBuf(b.Bytes())); ok {
		t.Fatal("a 4-flag ring restored into a 5-flag gate")
	}
}
