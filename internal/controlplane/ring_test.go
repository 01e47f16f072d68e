package controlplane

import (
	"fmt"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	mk := func() *Ring {
		r := NewRing(0)
		r.Add("engine-b")
		r.Add("engine-a")
		r.Add("engine-c")
		return r
	}
	r1, r2 := mk(), mk()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("veh-%04d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %s: owners differ across identical rings", key)
		}
	}
}

// TestRingMinimalMovement is the property the ring exists for: a fleet
// restarted without one node must move only the keys that node owned —
// every other key keeps its owner, so retiring an engine touches
// exactly that engine's vehicles.
func TestRingMinimalMovement(t *testing.T) {
	mk := func(nodes ...string) *Ring {
		r := NewRing(0)
		for _, n := range nodes {
			r.Add(n)
		}
		return r
	}
	with, without := mk("a", "b", "c"), mk("a", "c")
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("veh-%04d", i)
		prev, got := with.Owner(key), without.Owner(key)
		if prev != "b" && got != prev {
			t.Fatalf("key %s moved %s -> %s though its owner stayed in the ring", key, prev, got)
		}
		if prev == "b" && got == "b" {
			t.Fatalf("key %s still owned by removed node", key)
		}
	}
}

// TestRingBalance bounds the spread: with DefaultReplicas virtual
// nodes, no engine in a trio should own less than half or more than
// double its fair share of a large key set.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 6000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("veh-%05d", i))]++
	}
	fair := keys / len(nodes)
	for _, n := range nodes {
		if counts[n] < fair/2 || counts[n] > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair %d): spread too skewed", n, counts[n], keys, fair)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(4)
	if got := r.Owner("veh-0"); got != "" {
		t.Fatalf("empty ring Owner = %q", got)
	}
	r.Add("a")
	r.Add("a") // duplicate add is a no-op
	if got := len(r.points); got != 4 {
		t.Fatalf("duplicate Add grew the ring to %d points", got)
	}
	if got := r.Owner("anything"); got != "a" {
		t.Fatalf("single-node ring Owner = %q", got)
	}
}
