// Package controlplane decides which engine instance serves a vehicle:
// a consistent-hash ring above the engines' own FNV shard hash.
// navarchos-serve builds its placement (ownership filter, adoption
// overrides, transactional per-vehicle drain over HTTP) on this ring
// and the fleet's per-vehicle ExtractVehicle/AdoptVehicle handoff.
//
// The hashing is two-level by design. The ring decides which *engine*
// serves a vehicle and must reshuffle as little as possible when
// membership changes — that is what the virtual-node consistent hash
// buys. The engine's own FNV hash then decides which *shard* inside
// that engine owns the vehicle, and is free to be a plain modulo
// because a vehicle adopted by an engine is re-placed over that
// engine's shards anyway (fleet state is keyed by vehicle ID, never by
// shard index). Neither level's choice constrains the other's.
package controlplane

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping string keys (vehicle IDs) to
// named nodes (engine instances). Each node projects Replicas virtual
// points onto the ring so load spreads evenly and a ring built without
// one node differs only in the keys that node owned. The zero value is
// unusable; use NewRing. A ring only grows — membership is static per
// process, and placement changes travel as drains, not ring edits — and
// is not goroutine-safe: navarchos-serve fills it before serving and
// only reads it afterwards.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-node count used when NewRing is given
// a non-positive replica count: enough for single-digit-percent load
// spread across a handful of engines without making membership
// changes expensive.
const DefaultReplicas = 128

// NewRing returns an empty ring with the given virtual-node count per
// member (DefaultReplicas when replicas <= 0).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: map[string]bool{}}
}

// ringHash is 64-bit FNV-1a (the same family the fleet engine's shard
// hash uses, kept separate so the two levels stay independently
// stable) pushed through a 64-bit finalizer. The finalizer matters:
// raw FNV over short, similar keys ("a#0", "veh-0001") leaves the high
// bits — which decide ring position — strongly correlated, and the
// resulting point clustering can hand one engine nearly the whole key
// space. The mix spreads every input bit across the word.
func ringHash(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key)) //nolint:errcheck // fnv never fails
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node's virtual points. Adding a present node is a
// no-op.
func (r *Ring) Add(node string) {
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{ringHash(node + "#" + strconv.Itoa(i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Owner maps a key to its node: the first virtual point clockwise from
// the key's hash. Returns "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}
