package thresholds

import "github.com/navarchos/pdm/internal/checkpoint"

// Gate is the m-of-k persistence filter over one vehicle's violation
// flags: a violation passes when at least m of the last k flags, itself
// included, are violations. The detect stage and the grid's replay each
// run one gate per vehicle, across profile resets, since a reset
// rebuilds the reference profile, not the vehicle's alarm stream.
type Gate struct {
	m          int
	ring       []bool
	pos, count int
}

// NewGate returns an empty m-of-k gate, with m at least 1 and k at
// least m.
func NewGate(m, k int) Gate {
	m = max(m, 1)
	return Gate{m: m, ring: make([]bool, max(k, m))}
}

// Admit records one sample's flag and reports whether it passes.
func (g *Gate) Admit(viol bool) bool {
	if g.ring[g.pos] {
		g.count--
	}
	g.ring[g.pos] = viol
	if viol {
		g.count++
	}
	g.pos = (g.pos + 1) % len(g.ring)
	return viol && g.count >= g.m
}

// Reset empties the gate.
func (g *Gate) Reset() {
	clear(g.ring)
	g.pos, g.count = 0, 0
}

// Snapshot appends the gate's state to b: the ring, its position and
// its count of violations.
func (g *Gate) Snapshot(b *checkpoint.Buf) {
	b.Bools(g.ring)
	b.Int(g.pos)
	b.Int(g.count)
}

// ReadSnapshot reads what Snapshot wrote into a gate with g's m, leaving
// g as it is. ok is false when the ring is not g's length (a snapshot
// from another k) or the position or count does not fit it.
func (g *Gate) ReadSnapshot(r *checkpoint.RBuf) (restored Gate, ok bool) {
	ring, pos, count := r.Bools(), r.Int(), r.Int()
	ok = len(ring) == len(g.ring) && pos >= 0 && pos < len(ring) && count >= 0 && count <= len(ring)
	return Gate{m: g.m, ring: ring, pos: pos, count: count}, ok
}
