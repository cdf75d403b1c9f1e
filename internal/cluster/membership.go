package cluster

// Versioned placement: the Membership is an epoch-numbered placement
// table over a stable set of shard ids. PR 5's static Ring answered
// "which of N frozen shards owns this AID"; the Membership answers the
// same question for a cluster whose capacity changes at runtime. Shard
// ids are append-only and never reused — a shard that leaves or fails
// keeps its id forever (Dead) — so routing decisions taken under an old
// epoch remain attributable, and per-shard CID/instrument prefixes stay
// unambiguous across the cluster's whole history.
//
// The epoch is the routing-table version: it advances exactly when the
// set of routable shards changes (a join commissioning, a leave
// completing its handoff, a failure). Marking a shard Joining or
// Draining does NOT advance the epoch — a joining shard is not routable
// until its chunk ranges have migrated in, and a draining shard keeps
// serving (read-your-writes) until its ranges have migrated out. That
// ordering is what lets in-flight requests keep their idempotency
// window: a request routed under epoch E holds its shard for the whole
// session, and the epoch only flips after the data it might read has a
// new home.

// ShardState is one shard's position in the membership lifecycle.
type ShardState uint8

const (
	// ShardLive shards are routable: they own vnode ranges on the ring.
	ShardLive ShardState = iota
	// ShardJoining shards are booted and receiving migrated chunk
	// ranges, but own no ring points yet; commissioning flips them Live.
	ShardJoining
	// ShardDraining shards are leaving gracefully: still routable (they
	// keep serving their ranges) while their entries migrate out.
	ShardDraining
	// ShardDead shards have left or failed; they own nothing and are
	// never routed to again. Ids are not reused.
	ShardDead
)

func (s ShardState) String() string {
	switch s {
	case ShardLive:
		return "live"
	case ShardJoining:
		return "joining"
	case ShardDraining:
		return "draining"
	case ShardDead:
		return "dead"
	}
	return "unknown"
}

// Membership is the epoch-numbered placement table: shard states plus a
// consistent-hash ring over the routable shards and the replica factor R.
// It is a passive table — the Cluster mutates it and drives migration.
type Membership struct {
	epoch    uint64
	vnodes   int
	replicas int
	states   []ShardState // by shard id; append-only
	ring     *Ring        // over routable (Live | Draining) shards
}

// NewMembership builds the epoch-0 table: n Live shards (ids 0..n-1),
// vnodes points each (<= 0 selects DefaultVnodes), replica factor r
// (< 1 selects 1). Epoch 0 with a frozen membership is exactly PR 5's
// static ring, which is what keeps the 1-shard goldens byte-identical.
func NewMembership(n, vnodes, r int) *Membership {
	if n < 1 {
		n = 1
	}
	if r < 1 {
		r = 1
	}
	m := &Membership{vnodes: vnodes, replicas: r, states: make([]ShardState, n)}
	m.rebuild()
	return m
}

// rebuild reconstructs the ring from the current routable set.
func (m *Membership) rebuild() {
	m.ring = NewRingMembers(m.routable(), m.vnodes)
}

func (m *Membership) routable() []int {
	ids := make([]int, 0, len(m.states))
	for id, st := range m.states {
		if st == ShardLive || st == ShardDraining {
			ids = append(ids, id)
		}
	}
	return ids
}

// Epoch returns the current routing-table version.
func (m *Membership) Epoch() uint64 { return m.epoch }

// Len returns the total number of shard slots ever created (including
// Dead ones — slot i's id is i forever).
func (m *Membership) Len() int { return len(m.states) }

// Replicas returns the configured replica factor R.
func (m *Membership) Replicas() int { return m.replicas }

// State returns shard id's lifecycle state.
func (m *Membership) State(id int) ShardState {
	if id < 0 || id >= len(m.states) {
		return ShardDead
	}
	return m.states[id]
}

// Routable reports whether shard id currently owns ring ranges.
func (m *Membership) Routable(id int) bool {
	st := m.State(id)
	return st == ShardLive || st == ShardDraining
}

// LiveCount returns how many shards are currently routable.
func (m *Membership) LiveCount() int { return m.ring.Shards() }

// Primary returns the shard owning aid under the current epoch.
func (m *Membership) Primary(aid string) int { return m.ring.Owner(aid) }

// AppendReplicaSet appends aid's replica placement under the current
// epoch to dst: the first R distinct routable shards clockwise of its
// hash, primary first (fewer if the cluster has fewer routable shards).
// Callers that only read the set pass a stack buffer.
func (m *Membership) AppendReplicaSet(dst []int, aid string) []int {
	return m.ring.AppendSuccessors(dst, aid, m.replicas)
}

// Route is the epoch-stamped routing call: the primary shard for aid and
// the epoch the answer is valid under. Callers that pin work to the
// returned shard (every session does) keep that binding even if the
// epoch advances underneath them — the handoff rule that preserves the
// idempotency window across migrations.
func (m *Membership) Route(aid string) (shard int, epoch uint64) {
	return m.ring.Owner(aid), m.epoch
}

// Add appends a new Joining shard slot and returns its id. The ring (and
// epoch) are untouched: the shard owns nothing until Commission.
func (m *Membership) Add() int {
	m.states = append(m.states, ShardJoining)
	return len(m.states) - 1
}

// RingWith returns the ring as it will look once id is routable — the
// placement migration copies toward before commissioning flips routing.
func (m *Membership) RingWith(id int) *Ring {
	ids := m.routable()
	present := false
	for _, s := range ids {
		if s == id {
			present = true
		}
	}
	if !present {
		ids = append(ids, id)
	}
	return NewRingMembers(ids, m.vnodes)
}

// RingWithout returns the ring as it will look once id has left.
func (m *Membership) RingWithout(id int) *Ring {
	ids := m.routable()
	out := ids[:0]
	for _, s := range ids {
		if s != id {
			out = append(out, s)
		}
	}
	return NewRingMembers(out, m.vnodes)
}

// Commission flips a Joining shard Live and advances the epoch: from this
// instant new routes may land on it.
func (m *Membership) Commission(id int) {
	if m.State(id) != ShardJoining {
		return
	}
	m.states[id] = ShardLive
	m.epoch++
	m.rebuild()
}

// BeginDrain marks a Live shard Draining. Routing (and the epoch) are
// unchanged — the shard keeps serving its ranges while they migrate out,
// which is the read-your-writes half of the handoff protocol.
func (m *Membership) BeginDrain(id int) bool {
	if m.State(id) != ShardLive {
		return false
	}
	m.states[id] = ShardDraining
	return true
}

// CompleteDrain retires a Draining shard: Dead, epoch advanced, ring
// rebuilt without it. Only called after its ranges have new homes.
func (m *Membership) CompleteDrain(id int) {
	if m.State(id) != ShardDraining {
		return
	}
	m.states[id] = ShardDead
	m.epoch++
	m.rebuild()
}

// Fail retires a shard abruptly (crash model): Dead immediately, epoch
// advanced, no handoff — its ranges fall to the surviving replicas.
// Joining and Draining shards can fail too.
func (m *Membership) Fail(id int) bool {
	st := m.State(id)
	if st == ShardDead || id < 0 || id >= len(m.states) {
		return false
	}
	m.states[id] = ShardDead
	m.epoch++
	m.rebuild()
	return true
}
