package cluster

import (
	"slices"

	"rattrap/internal/core"
	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Live resharding: AddShard / RemoveShard / FailShard mutate the
// Membership at runtime and drive the chunk-level warehouse migration
// that makes the new placement real. The protocol per operation:
//
//	join    boot platform (Joining, unroutable) → copy the vnode ranges
//	        the prospective ring assigns it (MissingChunks delta, so only
//	        absent blocks transfer) → Commission (epoch++, routable) →
//	        repair → drop the moved ranges from shards that left their
//	        replica set
//	leave   BeginDrain (still routable: read-your-writes until handoff
//	        completes) → copy its entries to their next owners →
//	        CompleteDrain (epoch++, unroutable) → retire the pool →
//	        repair → drop
//	fail    Fail (epoch++ immediately, no handoff) → retire the pool →
//	        re-replicate under-replicated entries from survivors (R > 1;
//	        at R = 1 the cached code is simply lost and devices re-push
//	        on demand — the cold-start tax replicas exist to kill)
//
// Operations serialize through the cluster's work queue: membership state
// flips synchronously (routing changes take effect at the call), but the
// data motion runs one rebalance at a time on spawned procs, in
// submission order. Every proc terminates, so the engine still drains
// when the cluster quiesces.

// AddShard boots a new shard into the cluster and returns its id. The
// shard starts Joining — booted, receiving its vnode ranges, not yet
// routable — and is commissioned (epoch advance, traffic shifts) once the
// migration completes.
func (c *Cluster) AddShard() int {
	id := c.mem.Add()
	scfg := c.cfg
	scfg.CIDPrefix = CIDPrefix(id)
	pl := c.newShard(scfg)
	if c.reg != nil {
		pl.SetObsPrefixed(c.reg, ShardPrefix(id))
	}
	if c.onShardAdded != nil {
		c.onShardAdded(id, pl)
	}
	c.enqueue(func(p *sim.Proc) { c.join(p, id) })
	return id
}

// RemoveShard begins a graceful leave: the shard keeps serving (Draining
// is routable) while its entries migrate to their next owners, then drops
// out of the ring and drains its pool. Returns false if the shard is not
// currently Live, or is the last Live shard (BeginDrain).
func (c *Cluster) RemoveShard(id int) bool {
	if id < 0 || id >= len(c.shards) || !c.mem.BeginDrain(id) {
		return false
	}
	c.enqueue(func(p *sim.Proc) { c.leave(p, id) })
	return true
}

// FailShard crashes a shard: immediately unroutable (epoch advance), new
// operations on in-flight sessions fail with ErrShardDown, its pool is
// retired, and — with replicas — surviving copies re-replicate to restore
// R. Returns false if the shard is already dead.
func (c *Cluster) FailShard(id int) bool {
	if id < 0 || id >= len(c.shards) || !c.mem.Fail(id) {
		return false
	}
	c.failed[id] = true
	c.stats.Failures++
	c.retire(id)
	if c.mem.Replicas() > 1 {
		c.enqueue(func(p *sim.Proc) { c.repair(p) })
	}
	return true
}

// enqueue appends one rebalance work item and starts the pump if idle.
func (c *Cluster) enqueue(work func(p *sim.Proc)) {
	c.queue = append(c.queue, work)
	c.pump()
}

// pump runs the next queued rebalance on its own proc; the proc chains to
// the next item when it finishes. busy guarantees one rebalance in flight.
func (c *Cluster) pump() {
	if c.busy || len(c.queue) == 0 {
		return
	}
	c.busy = true
	work := c.queue[0]
	c.queue = c.queue[1:]
	c.e.Spawn("cluster-rebalance", func(p *sim.Proc) {
		work(p)
		c.busy = false
		c.pump()
	})
}

// join migrates the prospective vnode ranges onto Joining shard id, then
// commissions it. Aborts quietly if the shard failed while queued.
func (c *Cluster) join(p *sim.Proc, id int) {
	if c.mem.State(id) != ShardJoining {
		return
	}
	c.handoff(p, c.mem.RingWith(id),
		func(s int) bool { return s != id && c.mem.Routable(s) },
		func(t int) bool { return t == id })
	if c.mem.State(id) != ShardJoining {
		return // failed during the copy; the imported entries die with it
	}
	c.mem.Commission(id)
	c.stats.Joins++
	c.repair(p)
	c.dropOrphans()
}

// leave migrates a Draining shard's entries to their next owners, then
// completes the drain and retires the pool.
func (c *Cluster) leave(p *sim.Proc, id int) {
	if c.mem.State(id) != ShardDraining {
		return
	}
	c.handoff(p, c.mem.RingWithout(id),
		func(s int) bool { return s == id },
		func(int) bool { return true })
	if c.mem.State(id) != ShardDraining {
		return
	}
	c.mem.CompleteDrain(id)
	c.stats.Removals++
	c.retire(id)
	c.repair(p)
	c.dropOrphans()
}

// handoff is the copy half of a join or a leave: from each shard that from
// admits, in shard order, every entry whose replica set under next has a
// member that to admits, in insertion order, lands on each such member.
func (c *Cluster) handoff(p *sim.Proc, next *Ring, from, to func(shard int) bool) {
	r := c.mem.Replicas()
	var set [8]int
	moving := func(aid string) bool {
		return slices.ContainsFunc(next.AppendSuccessors(set[:0], aid, r), to)
	}
	for s := range c.shards {
		src := c.shards[s].Warehouse()
		if src == nil || !from(s) {
			continue
		}
		for _, ent := range src.ExportRange(moving) {
			for _, t := range next.AppendSuccessors(set[:0], ent.AID, r) {
				if !to(t) {
					continue
				}
				if delta, full := c.copyEntry(p, t, ent); full > 0 {
					c.stats.EntriesMoved++
					c.stats.DeltaBytes += delta
					c.stats.FullBytes += full
				}
			}
		}
	}
}

// copyEntry lands ent in shard t's warehouse, then holds that warehouse to
// its capacity: the one way a migrated or replicated entry arrives. An
// import that fails is tried once more (a failed staging leaves nothing
// behind), so one failed write does not leave the entry short of its
// replica set; when the second fails too, the cluster repairs again after
// repairRetryDelay. It returns the delta and full bytes ImportEntry
// reports; full is 0 when nothing landed (t has no warehouse, already held
// the entry, or both imports failed).
func (c *Cluster) copyEntry(p *sim.Proc, t int, ent core.ExportedEntry) (delta, full host.Bytes) {
	tw := c.shards[t].Warehouse()
	if tw == nil {
		return 0, 0
	}
	delta, full, err := tw.ImportEntry(p, ent)
	if err != nil {
		delta, full, err = tw.ImportEntry(p, ent)
	}
	if err != nil {
		c.unlanded = append(c.unlanded, ent)
		if !c.repairRetry.Armed() {
			c.repairRetry.After(repairRetryDelay)
		}
		return 0, 0
	}
	if full == 0 {
		return 0, 0
	}
	tw.EnforceCapacity()
	return delta, full
}

// repair restores the replica factor after a membership change, and
// repairRetryDelay after a copy failed: every AID held by fewer shards than
// its replica set asks for is re-copied from a surviving holder. After a
// join or a leave this catches the entries the migration's snapshot missed
// — pushed while it copied, or with their fan-out still in flight when the
// ring moved — which the drop that follows would otherwise leave short of
// their set. The entries of failed copies are landed first, from the
// copies' own exports, as a fan-out lands its entry after its source
// failed. Iteration is sorted so the transfer schedule is deterministic.
func (c *Cluster) repair(p *sim.Proc) {
	var held, set [8]int
	unlanded := c.unlanded
	c.unlanded = nil
	for _, ent := range unlanded {
		for _, t := range c.mem.AppendReplicaSet(set[:0], ent.AID) {
			if c.failed[t] {
				continue
			}
			if delta, full := c.copyEntry(p, t, ent); full > 0 {
				c.stats.Repaired++
				c.stats.DeltaBytes += delta
				c.stats.FullBytes += full
			}
		}
	}
	// Each routable shard's AIDs, sorted, walked in step: the merge visits
	// every AID once, in order, with the shards holding it lowest id first,
	// and allocates per shard rather than per AID.
	var ids []int
	var lists [][]string
	for s := range c.shards {
		if !c.mem.Routable(s) {
			continue
		}
		if wh := c.shards[s].Warehouse(); wh != nil {
			ids = append(ids, s)
			lists = append(lists, wh.AIDs())
		}
	}
	for {
		aid, found := "", false
		for _, l := range lists {
			if len(l) > 0 && (!found || l[0] < aid) {
				aid, found = l[0], true
			}
		}
		if !found {
			return
		}
		have := held[:0]
		for i, l := range lists {
			if len(l) > 0 && l[0] == aid {
				have = append(have, ids[i])
				lists[i] = l[1:]
			}
		}
		missing := slices.DeleteFunc(c.mem.AppendReplicaSet(set[:0], aid), func(t int) bool {
			return slices.Contains(have, t)
		})
		if len(missing) == 0 {
			continue
		}
		ent, ok := c.shards[have[0]].Warehouse().Export(aid)
		if !ok {
			continue
		}
		for _, t := range missing {
			if delta, full := c.copyEntry(p, t, ent); full > 0 {
				c.stats.Repaired++
				c.stats.DeltaBytes += delta
				c.stats.FullBytes += full
			}
		}
	}
}

// dropOrphans removes, from every routable shard, entries whose replica
// set no longer includes it and whose every member holds them — the "only
// moved ranges transfer" guarantee's other half: moved ranges also leave
// their old home. An entry that landed after the repair before it listed
// the shards' AIDs stays until its fan-out has copied it to the set. An
// in-flight session whose entry is dropped underneath it degrades to
// ErrCodeNeeded and the device re-pushes; nothing breaks, one transfer is
// wasted.
func (c *Cluster) dropOrphans() {
	var set [8]int
	for s := range c.shards {
		if !c.mem.Routable(s) {
			continue
		}
		wh := c.shards[s].Warehouse()
		if wh == nil {
			continue
		}
		for _, aid := range wh.AIDs() {
			members := c.mem.AppendReplicaSet(set[:0], aid)
			if !slices.Contains(members, s) && c.heldBy(aid, members) && wh.DropEntry(aid) {
				c.stats.EntriesDropped++
			}
		}
	}
}

// heldBy reports whether every shard in shards holds aid.
func (c *Cluster) heldBy(aid string, shards []int) bool {
	for _, t := range shards {
		if tw := c.shards[t].Warehouse(); tw == nil {
			return false
		} else if _, ok := tw.Lookup(aid); !ok {
			return false
		}
	}
	return true
}

// retire winds a dead or drained shard's pool down: every runtime is
// cordoned (in-flight work finishes, then the slot drains through the
// lifecycle FSM), the sizing floor drops to zero so an autoscaler stops
// re-warming capacity nothing routes to, and requests still parked in its
// wait ring are bounced (Prepare reports ErrShardDown) to retry onto the
// shards that now own their AIDs.
func (c *Cluster) retire(id int) {
	pl := c.shards[id]
	for _, ri := range pl.DB().List() {
		pl.CordonRuntime(ri.CID)
	}
	pl.SetPoolBounds(0, 1)
	pl.RejectQueued()
}

// fanOut replicates a freshly pushed entry to the rest of its replica set,
// asynchronously (the pushing device does not wait on copies between
// shards), on the proc of a replication record. No-op at R = 1 on the AID's
// primary, so the engine sees no new procs and the replica-free goldens
// stay byte-identical.
func (c *Cluster) fanOut(shard int, aid string) {
	if c.mem.Replicas() < 2 && c.mem.Primary(aid) == shard {
		return
	}
	f := &replication{c: c, shard: shard, aid: aid}
	c.e.Start(&f.Proc, "replicate", f)
}

// replication is one fan-out: its proc and the entry it copies.
type replication struct {
	sim.Proc
	c     *Cluster
	shard int // where the entry was pushed
	aid   string
}

func (f *replication) Run(p *sim.Proc) {
	c, shard, aid := f.c, f.shard, f.aid
	src := c.shards[shard].Warehouse()
	if src == nil || c.failed[shard] {
		return
	}
	ent, ok := src.Export(aid)
	if !ok {
		return
	}
	// A copy can stall, and a membership change meanwhile can put a
	// shard into the set that the repair it started has already
	// passed: the set is read again until the epoch holds still.
	var set, buf [8]int
	landed := append(buf[:0], shard)
	for epoch := c.mem.Epoch(); ; epoch = c.mem.Epoch() {
		for _, t := range c.mem.AppendReplicaSet(set[:0], aid) {
			if t == shard || c.failed[t] {
				continue
			}
			if delta, full := c.copyEntry(p, t, ent); full > 0 {
				c.stats.ReplicaCopies++
				c.stats.ReplicaDelta += delta
				landed = append(landed, t)
			}
		}
		if c.mem.Epoch() == epoch {
			break
		}
	}
	// A session keeps the shard it was routed to, and a copy the shard
	// it was started for, so the entry may have landed on shards that
	// have left its replica set since: once every member holds the
	// entry, each of those drops its own.
	members := c.mem.AppendReplicaSet(set[:0], aid)
	if !c.heldBy(aid, members) {
		return
	}
	for _, s := range landed {
		if c.mem.Routable(s) && !slices.Contains(members, s) && c.shards[s].Warehouse().DropEntry(aid) {
			c.stats.EntriesDropped++
		}
	}
}
