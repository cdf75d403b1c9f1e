package cluster

import (
	"sort"

	"rattrap/internal/core"
	"rattrap/internal/sim"
)

// Live resharding: AddShard / RemoveShard / FailShard mutate the
// Membership at runtime and drive the chunk-level warehouse migration
// that makes the new placement real. The protocol per operation:
//
//	join    boot platform (Joining, unroutable) → copy the vnode ranges
//	        the prospective ring assigns it (MissingChunks delta, so only
//	        absent blocks transfer) → Commission (epoch++, routable) →
//	        drop the moved ranges from shards that left their replica set
//	leave   BeginDrain (still routable: read-your-writes until handoff
//	        completes) → copy its entries to their next owners →
//	        CompleteDrain (epoch++, unroutable) → retire the pool
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
	pl := core.New(c.e, scfg)
	c.shards = append(c.shards, pl)
	c.failed = append(c.failed, false)
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
// currently Live.
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
	next := c.mem.RingWith(id)
	r := c.mem.Replicas()
	target := c.shards[id].Warehouse()
	if target != nil {
		for s := range c.shards {
			if s == id || !c.mem.Routable(s) {
				continue
			}
			src := c.shards[s].Warehouse()
			if src == nil {
				continue
			}
			var set [8]int
			ents := src.ExportRange(func(aid string) bool {
				return containsShard(next.AppendSuccessors(set[:0], aid, r), id)
			})
			for _, ent := range ents {
				delta, full, err := target.ImportEntry(p, ent)
				if err != nil || full == 0 {
					continue // import error, or already held (idempotent)
				}
				c.stats.EntriesMoved++
				c.stats.DeltaBytes += delta
				c.stats.FullBytes += full
			}
		}
		target.EnforceCapacity()
	}
	if c.mem.State(id) != ShardJoining {
		return // failed during the copy; the imported entries die with it
	}
	c.mem.Commission(id)
	c.stats.Joins++
	c.dropOrphans()
}

// leave migrates a Draining shard's entries to their next owners, then
// completes the drain and retires the pool.
func (c *Cluster) leave(p *sim.Proc, id int) {
	if c.mem.State(id) != ShardDraining {
		return
	}
	next := c.mem.RingWithout(id)
	r := c.mem.Replicas()
	if src := c.shards[id].Warehouse(); src != nil {
		var set [8]int
		for _, ent := range src.ExportRange(func(string) bool { return true }) {
			for _, t := range next.AppendSuccessors(set[:0], ent.AID, r) {
				tw := c.shards[t].Warehouse()
				if tw == nil {
					continue
				}
				delta, full, err := tw.ImportEntry(p, ent)
				if err != nil || full == 0 {
					continue
				}
				c.stats.EntriesMoved++
				c.stats.DeltaBytes += delta
				c.stats.FullBytes += full
			}
		}
	}
	if c.mem.State(id) != ShardDraining {
		return
	}
	c.mem.CompleteDrain(id)
	c.stats.Removals++
	c.retire(id)
	c.dropOrphans()
}

// repair restores the replica factor after a failure: every AID held by
// fewer shards than its replica set asks for is re-copied from a
// surviving holder. Iteration is sorted so the transfer schedule is
// deterministic.
func (c *Cluster) repair(p *sim.Proc) {
	holders := make(map[string][]int)
	for s := range c.shards {
		if !c.mem.Routable(s) {
			continue
		}
		wh := c.shards[s].Warehouse()
		if wh == nil {
			continue
		}
		for _, aid := range wh.AIDs() {
			holders[aid] = append(holders[aid], s)
		}
	}
	aids := make([]string, 0, len(holders))
	for aid := range holders {
		aids = append(aids, aid)
	}
	sort.Strings(aids)
	var set [8]int
	for _, aid := range aids {
		have := holders[aid]
		src := c.shards[have[0]].Warehouse()
		for _, t := range c.mem.AppendReplicaSet(set[:0], aid) {
			if containsShard(have, t) {
				continue
			}
			tw := c.shards[t].Warehouse()
			if tw == nil {
				continue
			}
			ent, ok := src.Export(aid)
			if !ok {
				continue
			}
			delta, full, err := tw.ImportEntry(p, ent)
			if err != nil || full == 0 {
				continue
			}
			c.stats.Repaired++
			c.stats.DeltaBytes += delta
			c.stats.FullBytes += full
		}
	}
}

// dropOrphans removes, from every routable shard, entries whose replica
// set no longer includes it — the "only moved ranges transfer" guarantee's
// other half: moved ranges also leave their old home. An in-flight session
// whose entry is dropped underneath it degrades to ErrCodeNeeded and the
// device re-pushes; nothing breaks, one transfer is wasted.
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
			if !containsShard(c.mem.AppendReplicaSet(set[:0], aid), s) && wh.DropEntry(aid) {
				c.stats.EntriesDropped++
			}
		}
	}
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

// fanOut replicates a freshly pushed entry from its primary to the rest
// of its replica set, asynchronously (the pushing device does not wait on
// copies between shards). No-op at R = 1 — the engine sees no new procs,
// which is what keeps the replica-free goldens byte-identical.
func (c *Cluster) fanOut(shard int, aid string) {
	if c.mem.Replicas() < 2 {
		return
	}
	c.e.Spawn("replicate:"+aid, func(p *sim.Proc) {
		src := c.shards[shard].Warehouse()
		if src == nil || c.failed[shard] {
			return
		}
		ent, ok := src.Export(aid)
		if !ok {
			return
		}
		var set [8]int
		for _, t := range c.mem.AppendReplicaSet(set[:0], aid) {
			if t == shard || c.failed[t] {
				continue
			}
			tw := c.shards[t].Warehouse()
			if tw == nil {
				continue
			}
			delta, full, err := tw.ImportEntry(p, ent)
			if err != nil || full == 0 {
				continue
			}
			c.stats.ReplicaCopies++
			c.stats.ReplicaDelta += delta
			tw.EnforceCapacity()
		}
	})
}

func containsShard(set []int, id int) bool {
	for _, s := range set {
		if s == id {
			return true
		}
	}
	return false
}
