// Package cluster scales Rattrap horizontally: a Cluster is N core.Platform
// shards behind one offload.Gateway, with AIDs consistent-hashed across the
// shards. Routing by AID — not by device — preserves the paper's App
// Warehouse story at cluster scale: every request for an app lands on the
// one shard whose warehouse holds (or will hold) that app's code, so the
// cache-hit rate of a shard equals the cache-hit rate the paper measured
// for a single server. Nothing is shared between shards: each has its own
// server, kernel, runtime pool, warehouse, and admission bounds, which is
// what makes the design replicate — a shard is exactly the single-node
// platform of §IV, unmodified.
//
// Placement lives in a versioned Membership (membership.go): an
// epoch-numbered table that shards can join, leave, or fall out of at
// runtime. A membership change moves only the vnode ranges the ring
// reassigns, and what crosses between shards is the warehouse's 64 KiB
// content-addressed chunks under the MissingChunks negotiation — a joining
// shard pulls only blocks it does not already hold. With Replicas > 1
// every warehouse entry is fanned out to the R shards clockwise of its
// AID, so losing a shard loses no cached code.
//
// A Cluster runs all shards on one sim.Engine, so results in virtual time
// are bit-deterministic per seed, and a 1-shard Cluster is byte-identical
// to a bare Platform (pinned by the experiments goldens). The realtime
// serving layer runs this same Cluster under its pacing driver.
package cluster

import (
	"fmt"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// ErrShardDown reports an operation against a shard that crashed after the
// session was routed to it. It is offload.ErrShardDown, which
// offload.Retryable knows: the failure already advanced the membership
// epoch, so the caller's next Prepare routes to a surviving shard.
var ErrShardDown = offload.ErrShardDown

// ShardError tags a platform error with the shard that produced it. It
// wraps rather than flattens: errors.As still finds the shard's
// offload.OverloadedError (whose RetryAfter hint reflects that shard's own
// queue and hold-time EWMA), and errors.Is still matches core.ErrBlocked
// and ErrShardDown.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the shard's error to errors.Is / errors.As.
func (e *ShardError) Unwrap() error { return e.Err }

// ShardPrefix is the per-shard instrument label ("shard2.").
func ShardPrefix(i int) string { return fmt.Sprintf("shard%d.", i) }

// CIDPrefix is the per-shard runtime-ID prefix ("s2-cac-1").
func CIDPrefix(i int) string { return fmt.Sprintf("s%d-", i) }

// MigrationStats accumulates what the membership machinery moved: joins,
// removals and failures applied; entries and bytes migrated (DeltaBytes is
// what the chunk negotiation actually transferred, FullBytes what copying
// whole blobs would have cost); entries dropped from shards that left a
// replica set; and the replica fan-out's background copies.
type MigrationStats struct {
	Joins    int
	Removals int
	Failures int

	EntriesMoved   int
	DeltaBytes     host.Bytes
	FullBytes      host.Bytes
	EntriesDropped int

	ReplicaCopies int
	ReplicaDelta  host.Bytes
	Repaired      int
}

// Cluster implements offload.Gateway over a versioned set of Platform
// shards on one engine. The shards slice is indexed by stable shard id and
// append-only: a dead shard keeps its slot (and its platform, for
// post-mortem inspection) forever.
type Cluster struct {
	e      *sim.Engine
	cfg    core.Config
	reg    *obs.Registry
	mem    *Membership
	shards []*core.Platform
	failed []bool // crash-model flag: failed shards reject in-flight ops

	// onShardAdded, when set, is invoked synchronously for every shard
	// booted after construction (fault-hook wiring, instrumentation).
	onShardAdded func(id int, pl *core.Platform)

	// Membership operations serialize through this queue: each op's
	// migration runs on its own spawned proc, and a finished proc starts
	// the next — never two rebalances in flight, and no perpetual procs
	// (the engine must drain when the cluster quiesces).
	queue []func(p *sim.Proc)
	busy  bool

	stats MigrationStats
}

// NewReplicated builds an n-shard cluster on engine e whose warehouse
// entries fan out to r replicas (r clamped to [1, n]). Every shard gets an
// identical copy of cfg — including cfg.Autoscale, so an elastic cluster
// runs one independent control loop per shard, each sizing its own pool
// from its own queue; idle shards scale to MinRuntimes (or to zero). With
// n > 1 each shard's CIDs are prefixed "sN-" so runtime IDs are unique
// cluster-wide. With n == 1 the configuration is left untouched — a
// 1-shard Cluster must be indistinguishable from the bare Platform it
// wraps.
func NewReplicated(e *sim.Engine, cfg core.Config, n, r int) *Cluster {
	if n < 1 {
		n = 1
	}
	if r > n {
		r = n
	}
	c := &Cluster{e: e, cfg: cfg, mem: NewMembership(n, 0, r)}
	for i := 0; i < n; i++ {
		scfg := cfg
		if n > 1 {
			scfg.CIDPrefix = CIDPrefix(i)
		}
		c.shards = append(c.shards, core.New(e, scfg))
		c.failed = append(c.failed, false)
	}
	return c
}

// Shards returns the total shard-slot count, dead slots included (slot i
// is shard id i forever).
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's platform (valid for dead shards too).
func (c *Cluster) Shard(i int) *core.Platform { return c.shards[i] }

// Membership exposes the placement table (epoch, states, replica sets).
func (c *Cluster) Membership() *Membership { return c.mem }

// Epoch returns the current routing-table version.
func (c *Cluster) Epoch() uint64 { return c.mem.Epoch() }

// Owner returns the shard id owning aid under the current epoch.
func (c *Cluster) Owner(aid string) int { return c.mem.Primary(aid) }

// MigrationStats returns a snapshot of the migration counters.
func (c *Cluster) MigrationStats() MigrationStats { return c.stats }

// OnShardAdded registers a hook run synchronously for every shard booted
// by AddShard — the scenario runner uses it to wire fault-injection hooks
// into late-joining shards exactly as Run wired the founding ones.
func (c *Cluster) OnShardAdded(fn func(id int, pl *core.Platform)) { c.onShardAdded = fn }

// SetObs installs one registry across all shards. With multiple shards,
// every instrument is prefixed "shardN." so one scrape separates them; a
// 1-shard cluster keeps the platform's plain instrument names. The
// registry is remembered so shards added later self-register.
func (c *Cluster) SetObs(reg *obs.Registry) {
	c.reg = reg
	for i, pl := range c.shards {
		if len(c.shards) > 1 {
			pl.SetObsPrefixed(reg, ShardPrefix(i))
		} else {
			pl.SetObs(reg)
		}
	}
}

// Prepare implements offload.Gateway: route the request to the shard
// owning its AID under the current epoch. Errors come back wrapped in
// *ShardError (unwrapped typed errors intact); the returned session wraps
// the shard's session the same way and stays pinned to its shard for its
// whole lifetime — routing changes never migrate an in-flight session, so
// the PR 2 idempotency window (device, seq) keeps pointing at the dedup
// state that saw the first attempt.
func (c *Cluster) Prepare(p *sim.Proc, req offload.ExecRequest) (offload.Session, error) {
	shard := c.mem.Primary(req.AID)
	if c.failed[shard] {
		// Every routable shard is gone (the ring routes to a dead shard
		// only when no live member remains).
		return nil, &ShardError{Shard: shard, Err: ErrShardDown}
	}
	sess, err := c.shards[shard].Prepare(p, req)
	if err != nil {
		if !c.mem.Routable(shard) {
			// The shard left the ring while this request was parked in it
			// and retire bounced its queue: a retry routes to the new owner.
			err = ErrShardDown
		}
		return nil, &ShardError{Shard: shard, Err: err}
	}
	// Every core session speaks the chunk negotiation (answering
	// Supported=false when its platform has chunking off).
	return &shardSession{ChunkedSession: sess.(offload.ChunkedSession), shard: shard, c: c}, nil
}

// Runtimes merges every shard's Container DB listing, shard 0 first. The
// records are copies (ContainerDB.List semantics) and CIDs are unique
// cluster-wide thanks to the per-shard prefix.
func (c *Cluster) Runtimes() []*core.RuntimeInfo {
	var out []*core.RuntimeInfo
	for _, pl := range c.shards {
		out = append(out, pl.DB().List()...)
	}
	return out
}

// WarehouseStats sums entries and hits across shards (Rattrap kinds only;
// zero for baselines).
func (c *Cluster) WarehouseStats() (entries, hits int) {
	for _, pl := range c.shards {
		if wh := pl.Warehouse(); wh != nil {
			e, h, _ := wh.Stats()
			entries += e
			hits += h
		}
	}
	return entries, hits
}

// shardSession pins a session to the shard that prepared it and tags
// session-level errors with that shard. If the shard crashes mid-session,
// further operations fail fast with ErrShardDown (wrapped, so errors.Is
// sees it); work already inside the platform completes — the crash model
// cuts the shard off from new operations, it does not unwind virtual time.
type shardSession struct {
	offload.ChunkedSession
	shard int
	c     *Cluster
}

// down reports ErrShardDown once the session's shard has crashed.
func (s *shardSession) down() error {
	if s.c.failed[s.shard] {
		return &ShardError{Shard: s.shard, Err: ErrShardDown}
	}
	return nil
}

// pushed tags a failed push with the session's shard; a push that landed
// fans out to the rest of the AID's replica set.
func (s *shardSession) pushed(aid string, err error) error {
	if err != nil {
		return &ShardError{Shard: s.shard, Err: err}
	}
	s.c.fanOut(s.shard, aid)
	return nil
}

func (s *shardSession) PushCode(p *sim.Proc, push offload.CodePush) error {
	if err := s.down(); err != nil {
		return err
	}
	return s.pushed(push.AID, s.ChunkedSession.PushCode(p, push))
}

// NegotiateChunks and PushChunks keep a device's delta push working
// through routing, and the entry it lands replicates like a full push.
func (s *shardSession) NegotiateChunks(p *sim.Proc, offer offload.ChunkOffer) (offload.ChunkNeed, error) {
	if err := s.down(); err != nil {
		return offload.ChunkNeed{}, err
	}
	need, err := s.ChunkedSession.NegotiateChunks(p, offer)
	if err != nil {
		return need, &ShardError{Shard: s.shard, Err: err}
	}
	return need, nil
}

func (s *shardSession) PushChunks(p *sim.Proc, offer offload.ChunkOffer, missing []uint64) error {
	if err := s.down(); err != nil {
		return err
	}
	return s.pushed(offer.AID, s.ChunkedSession.PushChunks(p, offer, missing))
}

func (s *shardSession) Execute(p *sim.Proc) (offload.Result, error) {
	if err := s.down(); err != nil {
		return offload.Result{}, err
	}
	res, err := s.ChunkedSession.Execute(p)
	if err != nil {
		// ErrCodeNeeded is part of the Gateway protocol (callers test for
		// it with errors.Is); wrapping keeps that working while naming the
		// shard in the flattened message.
		return res, &ShardError{Shard: s.shard, Err: err}
	}
	return res, nil
}
