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
	"slices"
	"time"

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

	// repairRetry queues a repair repairRetryDelay after a copy failed: the
	// entry it was landing stays short of its replica set, and nothing else
	// restores it until the membership changes. One timer, armed at most
	// once at a time; a repair whose own copy fails arms it again. unlanded
	// holds the entries those copies were landing, for the repair to land
	// from: the shards that held them may have failed or left by then.
	repairRetry *sim.Timer
	unlanded    []core.ExportedEntry

	stats MigrationStats
}

// repairRetryDelay is how long after a failed copy the cluster repairs
// again.
const repairRetryDelay = time.Second

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
	c.repairRetry = e.NewTimer(func() {
		c.enqueue(func(p *sim.Proc) {
			c.repair(p)
			c.dropOrphans() // the copies repair lands may leave others outside the set
		})
	})
	for i := 0; i < n; i++ {
		scfg := cfg
		if n > 1 {
			scfg.CIDPrefix = CIDPrefix(i)
		}
		c.newShard(scfg)
	}
	return c
}

// newShard boots the platform of the next shard slot behind its seam.
func (c *Cluster) newShard(cfg core.Config) *core.Platform {
	pl := core.New(c.e, cfg)
	pl.SetShard(&shardSeam{c: c, id: len(c.shards)})
	c.shards = append(c.shards, pl)
	c.failed = append(c.failed, false)
	return pl
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

// Audit runs every shard's audit (its error in a *ShardError) and checks no
// shard out of the ring has a request parked. With no proc live and no
// repair waiting to retry a failed copy, no push, fan-out or rebalance is in
// flight, so no shard may be Joining or Draining and every AID a routable
// shard holds must be on exactly its replica set.
func (c *Cluster) Audit() error {
	quiet := c.e.LiveProcs() == 0 && !c.repairRetry.Armed()
	var set [8]int
	for s, pl := range c.shards {
		if err := pl.Audit(); err != nil {
			return &ShardError{Shard: s, Err: err}
		}
		st, wh := c.mem.State(s), pl.Warehouse()
		if n := pl.QueueLength(); n != 0 && !c.mem.Routable(s) || quiet && (st == ShardJoining || st == ShardDraining) {
			return &ShardError{Shard: s, Err: fmt.Errorf("cluster audit: %v with %d requests parked, %d procs live", st, n, c.e.LiveProcs())}
		}
		if !quiet || wh == nil || !c.mem.Routable(s) {
			continue
		}
		for _, aid := range wh.AIDs() {
			members := c.mem.AppendReplicaSet(set[:0], aid)
			if !slices.Contains(members, s) {
				return &ShardError{Shard: s, Err: fmt.Errorf("cluster audit: holds %s outside its replica set %v", aid, members)}
			}
			for _, t := range members {
				if _, ok := c.shards[t].Warehouse().Lookup(aid); !ok {
					return &ShardError{Shard: s, Err: fmt.Errorf("cluster audit: holds %s, and shard %d of its replica set %v does not", aid, t, members)}
				}
			}
		}
	}
	return nil
}

// Prepare implements offload.Gateway: route the request to the shard
// owning its AID under the current epoch. Errors come back wrapped in
// *ShardError (unwrapped typed errors intact). The session is the shard's
// own, behind the seam the cluster installed on the shard (shardSeam): it
// stays pinned to its shard for its whole lifetime — routing changes never
// migrate an in-flight session, so the idempotency window (device, seq)
// keeps pointing at the dedup state that saw the first attempt.
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
	return sess, nil
}

// shardSeam is the core.Shard the cluster installs on shard id's platform:
// once the shard crashed its sessions fail fast with ErrShardDown, their
// errors name the shard, and a push that landed on it fans out to the rest
// of the AID's replica set.
type shardSeam struct {
	c  *Cluster
	id int
}

func (s *shardSeam) Down() error {
	if s.c.failed[s.id] {
		return &ShardError{Shard: s.id, Err: ErrShardDown}
	}
	return nil
}

func (s *shardSeam) Tag(err error) error { return &ShardError{Shard: s.id, Err: err} }

func (s *shardSeam) Pushed(aid string) { s.c.fanOut(s.id, aid) }
