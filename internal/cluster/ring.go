package cluster

import (
	"hash/fnv"
	"sort"
)

// Ring consistent-hashes AIDs onto shards. Each shard owns vnodes points
// on a 32-bit FNV-1a circle; an AID belongs to the shard owning the first
// point clockwise of its hash. Placement depends only on (members, vnodes,
// aid), never on request order, so routing is deterministic across runs
// and processes. Point hashes are keyed by (shard id, vnode) — adding a
// member only inserts that member's points and removing one only deletes
// its points, so a membership change remaps only the arcs those points
// cover: ~1/n of the keys on a join, and every remapped key lands on the
// new member (TestRingJoinMovesOnlyItsShare pins both halves of the
// doc-comment claim the static ring only asserted in prose).
type Ring struct {
	members []int       // sorted shard ids the ring is built over
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint32
	shard int
}

// DefaultVnodes spreads each shard over enough points that shard loads
// stay within a few percent of even for realistic AID counts.
const DefaultVnodes = 128

// NewRing builds a ring of n shards (n >= 1, ids 0..n-1) with vnodes
// points each. vnodes <= 0 selects DefaultVnodes.
func NewRing(n, vnodes int) *Ring {
	if n < 1 {
		n = 1
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewRingMembers(ids, vnodes)
}

// NewRingMembers builds a ring over an explicit member set — the form the
// versioned Membership layer uses, where shard ids are stable across
// joins and leaves and therefore not necessarily dense. An empty member
// list yields a ring that routes everything to shard 0 (callers guard
// against routing on an empty membership before this matters).
func NewRingMembers(ids []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	members := append([]int(nil), ids...)
	sort.Ints(members)
	r := &Ring{members: members, points: make([]ringPoint, 0, len(members)*vnodes)}
	var buf [16]byte
	for _, s := range members {
		for v := 0; v < vnodes; v++ {
			key := appendUint(appendUint(buf[:0], uint32(s)), uint32(v))
			r.points = append(r.points, ringPoint{hash: hash32(key), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // total order: ties can't flap between builds
	})
	return r
}

// Shards returns the member count.
func (r *Ring) Shards() int { return len(r.members) }

// Owner returns the shard owning aid.
func (r *Ring) Owner(aid string) int {
	if len(r.members) == 1 {
		return r.members[0]
	}
	if len(r.points) == 0 {
		return 0
	}
	h := hashString32(aid)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// Successors returns the first n distinct shards clockwise of aid's hash —
// the AID's replica set, primary first. Fewer than n members returns them
// all. The slice is freshly allocated (callers keep it).
func (r *Ring) Successors(aid string, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	if len(r.members) <= 1 || len(r.points) == 0 {
		out := make([]int, 0, 1)
		if len(r.members) == 1 {
			out = append(out, r.members[0])
		} else {
			out = append(out, 0)
		}
		return out
	}
	h := hashString32(aid)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, n)
	seen := 0
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		dup := false
		for _, s := range out {
			if s == p.shard {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p.shard)
		}
		seen++
	}
	return out
}

func hash32(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return fmix32(h.Sum32())
}

// FNV-1a 32-bit parameters (hash/fnv's, inlined so the string walk below
// stays allocation-free).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashString32 is the routing hot path: every Prepare on every gateway
// mode hashes its AID through here. The loop is FNV-1a inlined over the
// string — byte-identical to fnv.New32a on the same bytes, but without
// the []byte(s) conversion that escapes into the hash.Hash32 interface
// and allocated once per route. BenchmarkRingOwner pins it at 0 allocs/op.
func hashString32(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return fmix32(h)
}

// fmix32 is the murmur3 avalanche finalizer. Raw FNV-1a keeps
// similar keys correlated — AIDs sharing a prefix and differing in a
// trailing byte land within a few multiples of the FNV prime of each
// other, bunching a whole app family into one narrow arc of the circle
// (and one shard). The finalizer flips ~half the output bits per input
// bit, so such families spread evenly.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func appendUint(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
