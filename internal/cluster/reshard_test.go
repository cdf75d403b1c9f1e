package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestRingOwnerZeroAlloc gates the routing hot path: Owner must not touch
// the heap. The old hashString32 went through hash.Hash32, whose
// Write([]byte(s)) conversion escaped and allocated on every route.
func TestRingOwnerZeroAlloc(t *testing.T) {
	r := NewRing(4, 0)
	aids := make([]string, 64)
	for i := range aids {
		aids[i] = fmt.Sprintf("9e107d9d372bb6826bd81d3542a419d6#d%d", i)
	}
	var sink int
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		sink += r.Owner(aids[i%len(aids)])
		i++
	}); avg != 0 {
		t.Fatalf("Ring.Owner allocates %.2f times per route, want 0", avg)
	}
	_ = sink
}

// BenchmarkRingOwner is the perf half of the zero-alloc gate; run with
// -benchmem to see 0 allocs/op.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(8, 0)
	aids := make([]string, 256)
	for i := range aids {
		aids[i] = fmt.Sprintf("9e107d9d372bb6826bd81d3542a419d6#d%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Owner(aids[i%len(aids)])
	}
	_ = sink
}

// TestRingHashMatchesStdlib: the inlined FNV-1a string loop must produce
// exactly what hash/fnv produces on the same bytes — placement is part of
// the golden surface, so the zero-alloc rewrite may not move a single key.
func TestRingHashMatchesStdlib(t *testing.T) {
	for i := 0; i < 512; i++ {
		s := fmt.Sprintf("aid-%d#%d", i*7, i)
		if got, want := hashString32(s), hash32([]byte(s)); got != want {
			t.Fatalf("hashString32(%q) = %08x, hash32 = %08x", s, got, want)
		}
	}
	if hashString32("") != hash32(nil) {
		t.Fatal("empty-string hash diverges from stdlib")
	}
}

// TestRingJoinMovesOnlyItsShare pins the consistent-hashing contract the
// doc comment used to assert only in prose: growing an n-shard ring to
// n+1 remaps roughly 1/(n+1) of a 100k-AID sample (≤ 1.35x that share,
// covering vnode placement variance), and every remapped key lands on the
// new shard — no key moves between surviving shards.
func TestRingJoinMovesOnlyItsShare(t *testing.T) {
	const keys = 100_000
	for _, n := range []int{2, 4, 8} {
		before, after := NewRing(n, 0), NewRing(n+1, 0)
		moved := 0
		for i := 0; i < keys; i++ {
			aid := fmt.Sprintf("9e107d9d372bb6826bd81d3542a419d6#t%d", i)
			was, is := before.Owner(aid), after.Owner(aid)
			if was == is {
				continue
			}
			moved++
			if is != n {
				t.Fatalf("n=%d: key %q moved %d -> %d, not to the new shard %d",
					n, aid, was, is, n)
			}
		}
		share := float64(moved) / keys
		limit := (1.0 / float64(n+1)) * 1.35
		if share > limit {
			t.Fatalf("n=%d: join remapped %.4f of keys, limit %.4f", n, share, limit)
		}
		if moved == 0 {
			t.Fatalf("n=%d: join moved nothing — the new shard owns no keys", n)
		}
	}
}

// TestMembershipEpochProtocol: the epoch advances exactly when the
// routable set changes — Add and BeginDrain leave routing untouched,
// Commission / CompleteDrain / Fail flip it.
func TestMembershipEpochProtocol(t *testing.T) {
	m := NewMembership(2, 0, 2)
	if m.Epoch() != 0 || m.LiveCount() != 2 {
		t.Fatalf("fresh membership: epoch %d, live %d", m.Epoch(), m.LiveCount())
	}

	id := m.Add()
	if id != 2 || m.Epoch() != 0 || m.LiveCount() != 2 || m.State(id) != ShardJoining {
		t.Fatalf("after Add: id=%d epoch=%d live=%d state=%v", id, m.Epoch(), m.LiveCount(), m.State(id))
	}
	m.Commission(id)
	if m.Epoch() != 1 || m.LiveCount() != 3 || m.State(id) != ShardLive {
		t.Fatalf("after Commission: epoch=%d live=%d state=%v", m.Epoch(), m.LiveCount(), m.State(id))
	}

	if !m.BeginDrain(0) || m.Epoch() != 1 || !m.Routable(0) {
		t.Fatalf("BeginDrain must keep shard routable at the same epoch (epoch=%d routable=%v)",
			m.Epoch(), m.Routable(0))
	}
	m.CompleteDrain(0)
	if m.Epoch() != 2 || m.Routable(0) || m.State(0) != ShardDead {
		t.Fatalf("after CompleteDrain: epoch=%d state=%v", m.Epoch(), m.State(0))
	}

	if !m.Fail(1) || m.Epoch() != 3 || m.State(1) != ShardDead {
		t.Fatalf("after Fail: epoch=%d state=%v", m.Epoch(), m.State(1))
	}
	if m.Fail(1) {
		t.Fatal("failing a dead shard must be a no-op")
	}
	if m.LiveCount() != 1 || m.Primary("anything") != 2 {
		t.Fatalf("sole survivor must own everything: live=%d owner=%d", m.LiveCount(), m.Primary("anything"))
	}
	// Dead ids are never reused.
	if next := m.Add(); next != 3 {
		t.Fatalf("new shard reused id %d", next)
	}
}

// TestMembershipReplicaSet: the replica set is R distinct routable shards
// with the primary first, and shrinks gracefully when fewer remain.
func TestMembershipReplicaSet(t *testing.T) {
	m := NewMembership(3, 0, 2)
	for i := 0; i < 64; i++ {
		aid := fmt.Sprintf("app#%d", i)
		set := m.ReplicaSet(aid)
		if len(set) != 2 {
			t.Fatalf("replica set size %d, want 2", len(set))
		}
		if set[0] != m.Primary(aid) {
			t.Fatalf("replica set %v does not lead with primary %d", set, m.Primary(aid))
		}
		if set[0] == set[1] {
			t.Fatalf("replica set %v repeats a shard", set)
		}
	}
	m.Fail(0)
	m.Fail(1)
	if set := m.ReplicaSet("app#1"); len(set) != 1 || set[0] != 2 {
		t.Fatalf("1-survivor replica set = %v", set)
	}
}

// offloadOnce drives one full request (prepare, push if asked, execute,
// release) against the cluster from inside a proc.
func offloadOnce(t *testing.T, p *sim.Proc, cl *Cluster, dev, aid string, app workload.App, push offload.CodePush) error {
	t.Helper()
	task := app.NewTask(p.E.Rand(), 0)
	sess, err := cl.Prepare(p, offload.ExecRequest{
		DeviceID: dev, AID: aid, App: task.App,
		Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes,
	})
	if err != nil {
		return err
	}
	defer sess.Release()
	if sess.NeedCode() {
		if err := sess.PushCode(p, push); err != nil {
			return err
		}
	}
	for {
		_, err = sess.Execute(p)
		if errors.Is(err, offload.ErrCodeNeeded) {
			if perr := sess.PushCode(p, push); perr != nil {
				return perr
			}
			continue
		}
		return err
	}
}

// seedCluster pushes `variants` size-variant AIDs of one app into the
// cluster and returns them. Variant sizes differ by a few bytes, so their
// synthetic manifests share the app's library chunks — the dedup the
// chunk-level migration is supposed to exploit.
func seedCluster(t *testing.T, e *sim.Engine, cl *Cluster, app workload.App, variants int) []string {
	t.Helper()
	aids := make([]string, variants)
	for i := 0; i < variants; i++ {
		i := i
		size := app.CodeSize() + host.Bytes(i)
		aid := offload.AID(app.Name(), size)
		aids[i] = aid
		e.Spawn(fmt.Sprintf("seed-%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 10 * time.Millisecond)
			if err := offloadOnce(t, p, cl, fmt.Sprintf("seed-dev-%d", i), aid, app,
				offload.CodePush{AID: aid, App: app.Name(), Size: size}); err != nil {
				t.Errorf("seed %d: %v", i, err)
			}
		})
	}
	e.Run()
	return aids
}

// TestClusterAddShardMigratesOnlyMissingChunks: joining a shard moves the
// remapped AIDs onto it as chunk deltas — the accumulated DeltaBytes must
// undercut the full-blob volume (variant manifests share library chunks),
// the epoch advances, and after the join every AID's entry lives on
// exactly its replica-set shards (moved ranges left their old home).
func TestClusterAddShardMigratesOnlyMissingChunks(t *testing.T) {
	e := sim.NewEngine(11)
	cfg := core.DefaultConfig(core.KindRattrap)
	cl := NewReplicated(e, cfg, 2, 1)
	app, _ := workload.ByName(workload.NameLinpack)

	aids := seedCluster(t, e, cl, app, 10)
	if entries, _ := cl.WarehouseStats(); entries != len(aids) {
		t.Fatalf("seeded %d entries, want %d", entries, len(aids))
	}

	id := cl.AddShard()
	e.Run() // drain the migration

	if got := cl.Epoch(); got != 1 {
		t.Fatalf("epoch after join = %d, want 1", got)
	}
	if st := cl.Membership().State(id); st != ShardLive {
		t.Fatalf("joined shard state = %v, want live", st)
	}
	stats := cl.MigrationStats()
	if stats.Joins != 1 || stats.EntriesMoved == 0 {
		t.Fatalf("stats after join: %+v", stats)
	}
	if stats.DeltaBytes >= stats.FullBytes {
		t.Fatalf("chunk migration moved %d delta bytes for %d full bytes — no dedup",
			stats.DeltaBytes, stats.FullBytes)
	}
	if stats.EntriesDropped == 0 {
		t.Fatal("no entries left their old shard after the join")
	}
	// Placement invariant: each AID cached exactly on its replica set.
	movedToNew := 0
	for _, aid := range aids {
		owner := cl.Owner(aid)
		for s := 0; s < cl.Shards(); s++ {
			_, has := cl.Shard(s).Warehouse().Lookup(aid)
			if want := s == owner; has != want {
				t.Fatalf("aid %s: shard %d has=%v, want %v (owner %d)", aid, s, has, want, owner)
			}
		}
		if owner == id {
			movedToNew++
		}
	}
	if movedToNew == 0 {
		t.Fatal("new shard owns none of the seeded AIDs")
	}
}

// TestClusterFailShardReplicaFailover (R=2): after the primary for an AID
// crashes, the surviving replica already holds the code — a re-offload is
// a warehouse hit, with no device re-push. In-flight sessions pinned to
// the dead shard fail fast with ErrShardDown through the usual ShardError
// wrapper.
func TestClusterFailShardReplicaFailover(t *testing.T) {
	e := sim.NewEngine(13)
	cfg := core.DefaultConfig(core.KindRattrap)
	cl := NewReplicated(e, cfg, 3, 2)
	app, _ := workload.ByName(workload.NameLinpack)

	size := app.CodeSize()
	aid := offload.AID(app.Name(), size)
	e.Spawn("first", func(p *sim.Proc) {
		if err := offloadOnce(t, p, cl, "dev-1", aid, app,
			offload.CodePush{AID: aid, App: app.Name(), Size: size}); err != nil {
			t.Errorf("first offload: %v", err)
		}
	})
	e.Run() // request + replica fan-out drain

	primary := cl.Owner(aid)
	set := cl.Membership().ReplicaSet(aid)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2 shards", set)
	}
	backup := set[1]
	if _, ok := cl.Shard(backup).Warehouse().Lookup(aid); !ok {
		t.Fatalf("replica fan-out left shard %d without %s", backup, aid)
	}
	if cl.MigrationStats().ReplicaCopies == 0 {
		t.Fatal("fan-out recorded no replica copies")
	}

	// Pin a session to the primary, crash it, and watch the session die
	// while a fresh request fails over warm.
	var inflightErr error
	var needAfter bool
	e.Spawn("crash-test", func(p *sim.Proc) {
		sess, err := cl.Prepare(p, offload.ExecRequest{DeviceID: "dev-2", AID: aid, App: app.Name()})
		if err != nil {
			t.Errorf("prepare before crash: %v", err)
			return
		}
		if !cl.FailShard(primary) {
			t.Error("FailShard refused a live shard")
		}
		_, inflightErr = sess.Execute(p)
		sess.Release()

		after, err := cl.Prepare(p, offload.ExecRequest{DeviceID: "dev-3", AID: aid, App: app.Name()})
		if err != nil {
			t.Errorf("prepare after crash: %v", err)
			return
		}
		needAfter = after.NeedCode()
		after.Release()
	})
	e.Run()

	if !errors.Is(inflightErr, ErrShardDown) {
		t.Fatalf("in-flight execute after crash: %v, want ErrShardDown", inflightErr)
	}
	var se *ShardError
	if !errors.As(inflightErr, &se) || se.Shard != primary {
		t.Fatalf("ErrShardDown not wrapped in ShardError naming shard %d: %v", primary, inflightErr)
	}
	if cl.Owner(aid) == primary {
		t.Fatal("routing still points at the dead shard")
	}
	if needAfter {
		t.Fatal("failover request needed a code re-push — the replica was cold")
	}
	if cl.Epoch() == 0 {
		t.Fatal("failure did not advance the epoch")
	}
}

// crashAfterPrepare is a gateway whose shard dies under the session Prepare
// just routed to it (FailShard is a no-op once the shard is dead).
type crashAfterPrepare struct {
	*Cluster
	shard int
}

func (g crashAfterPrepare) Prepare(p *sim.Proc, req offload.ExecRequest) (offload.Session, error) {
	sess, err := g.Cluster.Prepare(p, req)
	g.FailShard(g.shard)
	return sess, err
}

// TestDeviceRetrySurvivesShardFailure: the shared retry policy knows a
// crashed shard is retryable. A device's second request loses its AID's
// primary mid-session; the retry loop every simulated caller runs —
// device.Client.Attempt, then offload.RetryPolicy.Backoff — backs off,
// re-routes onto the replica (warm, thanks to the first request's fan-out)
// and succeeds without pushing the code again. The device's own retry
// predicate used to omit ErrShardDown and gave up here.
func TestDeviceRetrySurvivesShardFailure(t *testing.T) {
	e := sim.NewEngine(13)
	cl := NewReplicated(e, core.DefaultConfig(core.KindRattrap), 3, 2)
	app, _ := workload.ByName(workload.NameLinpack)
	size := app.CodeSize()
	primary := cl.Owner(offload.AID(app.Name(), size))
	c := device.Client{ID: "phone-1", Link: netsim.NewLink(e, netsim.LANWiFi())}
	rng := rand.New(rand.NewSource(13))

	e.Spawn("first", func(p *sim.Proc) {
		if _, err := c.Attempt(p, cl, app.NewTask(rng, 0), size, nil); err != nil {
			t.Errorf("first offload: %v", err)
		}
	})
	e.Run() // request + replica fan-out drain

	var failed []error
	var x device.Exchange
	var codeUp host.Bytes
	e.Spawn("second", func(p *sim.Proc) {
		task, rp := app.NewTask(rng, 1), offload.RetryPolicy{}.WithDefaults()
		for attempt := 1; ; attempt++ {
			var err error
			x, err = c.Attempt(p, crashAfterPrepare{cl, primary}, task, size, nil)
			codeUp += x.Traffic.CodeUp
			if err == nil {
				return
			}
			failed = append(failed, err)
			delay, ok := rp.Backoff(attempt, err, rng)
			if !ok {
				return
			}
			p.Sleep(delay)
		}
	})
	e.Run()
	if len(failed) != 1 || !errors.Is(failed[0], ErrShardDown) {
		t.Fatalf("failed attempts %v, want exactly one, lost to the crash (ErrShardDown)", failed)
	}
	if x.Result.Output == "" {
		t.Fatalf("the retry did not succeed: %+v", x.Result)
	}
	if codeUp != 0 {
		t.Errorf("the request re-pushed %d code bytes: the replica was cold", codeUp)
	}
}

// TestClusterRemoveShardHandsOff (R=1): a graceful leave moves every
// entry to its next owner before the shard goes dark, so nothing is lost
// and nobody re-pushes.
func TestClusterRemoveShardHandsOff(t *testing.T) {
	e := sim.NewEngine(17)
	cfg := core.DefaultConfig(core.KindRattrap)
	cl := NewReplicated(e, cfg, 3, 1)
	app, _ := workload.ByName(workload.NameLinpack)

	aids := seedCluster(t, e, cl, app, 9)

	// Pick a shard that owns at least one AID.
	victim := cl.Owner(aids[0])
	if !cl.RemoveShard(victim) {
		t.Fatal("RemoveShard refused a live shard")
	}
	if cl.RemoveShard(victim) {
		t.Fatal("RemoveShard accepted a draining shard twice")
	}
	e.Run()

	if st := cl.Membership().State(victim); st != ShardDead {
		t.Fatalf("removed shard state = %v, want dead", st)
	}
	if cl.MigrationStats().Removals != 1 {
		t.Fatalf("stats: %+v", cl.MigrationStats())
	}
	var missing []string
	for _, aid := range aids {
		owner := cl.Owner(aid)
		if owner == victim {
			t.Fatalf("aid %s still routed to the removed shard", aid)
		}
		if _, ok := cl.Shard(owner).Warehouse().Lookup(aid); !ok {
			missing = append(missing, aid)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("entries lost in the handoff: %v", missing)
	}
	// The cluster still serves everything without re-pushes.
	for i, aid := range aids {
		i, aid := i, aid
		e.Spawn(fmt.Sprintf("post-%d", i), func(p *sim.Proc) {
			sess, err := cl.Prepare(p, offload.ExecRequest{DeviceID: fmt.Sprintf("post-dev-%d", i), AID: aid, App: app.Name()})
			if err != nil {
				t.Errorf("post-remove prepare %s: %v", aid, err)
				return
			}
			if sess.NeedCode() {
				t.Errorf("post-remove request for %s needs a re-push", aid)
			}
			sess.Release()
		})
	}
	e.Run()
}

// TestClusterChunkedPushThroughRouting: a chunked device keeps its delta
// push when the gateway is a Cluster. Two shards at R=2, an app family of
// two code sizes sharing their library prefix: the second member uploads
// only the chunks the first did not already land (the shard session must
// be an offload.ChunkedSession for the device to negotiate at all), and
// the delta push fans out, so the replica holds the new entry too.
func TestClusterChunkedPushThroughRouting(t *testing.T) {
	e := sim.NewEngine(23)
	cl := NewReplicated(e, core.DefaultConfig(core.KindRattrap), 2, 2)
	app, _ := workload.ByName(workload.NameLinpack)
	const (
		base    = 5 * host.MB
		variant = 5*host.MB + 512*host.KB
	)

	var codeUp [2]host.Bytes
	for i, size := range []host.Bytes{base, variant} {
		i, size := i, size
		e.Spawn(fmt.Sprintf("family-%d", i), func(p *sim.Proc) {
			d, err := device.New(e, fmt.Sprintf("phone-%d", i), netsim.LANWiFi())
			if err != nil {
				t.Error(err)
				return
			}
			d.EnableChunkedPush(true)
			if _, _, err := d.Offload(p, d.NewTask(app), size, cl); err != nil {
				t.Error(err)
			}
			codeUp[i] = d.Traffic().CodeUp
		})
		e.Run() // quiesce: the push's replica copy lands before the next member
	}

	if codeUp[0] != base {
		t.Fatalf("first family member uploaded %d bytes, want the full %d", codeUp[0], base)
	}
	offer := offload.ChunkOffer{Size: variant, Hashes: offload.SyntheticManifest(app.Name(), variant)}
	have := make(map[uint64]bool)
	for _, h := range offload.SyntheticManifest(app.Name(), base) {
		have[h] = true
	}
	var missing []uint64
	for _, h := range offer.Hashes {
		if !have[h] {
			missing = append(missing, h)
		}
	}
	want := offload.DeltaBytes(offer, missing)
	if want == 0 || want >= variant/2 {
		t.Fatalf("bad fixture: family delta %d of %d bytes", want, variant)
	}
	if codeUp[1] != want {
		t.Fatalf("second family member uploaded %d bytes, want the %d-byte delta (full push is %d)", codeUp[1], want, variant)
	}
	aid := offload.AID(app.Name(), variant)
	for _, s := range cl.Membership().ReplicaSet(aid) {
		if _, ok := cl.Shard(s).Warehouse().Lookup(aid); !ok {
			t.Fatalf("shard %d of %s's replica set does not hold the delta-pushed entry", s, aid)
		}
	}
	if st := cl.MigrationStats(); st.ReplicaCopies != 2 {
		t.Fatalf("replica copies = %d, want 2 (one per push): %+v", st.ReplicaCopies, st)
	}
}

// TestClusterFailShardBouncesQueuedRequests: a request parked in a fixed
// pool's wait ring when its shard crashes must come back with ErrShardDown
// — the retired pool cordons every runtime, hands slots to nobody and boots
// no replacements, so without the bounce the request would wait forever.
func TestClusterFailShardBouncesQueuedRequests(t *testing.T) {
	e := sim.NewEngine(29)
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1
	cl := NewReplicated(e, cfg, 2, 1)
	app, _ := workload.ByName(workload.NameLinpack)
	aid := offload.AID(app.Name(), app.CodeSize())
	victim := cl.Owner(aid)

	var queuedErr error
	returned := false
	e.Spawn("holder", func(p *sim.Proc) {
		sess, err := cl.Prepare(p, offload.ExecRequest{DeviceID: "dev-1", AID: aid, App: app.Name()})
		if err != nil {
			t.Errorf("holder prepare: %v", err)
			return
		}
		// The shard's only runtime is pinned; let dev-2 queue behind it,
		// then crash the shard under both.
		for cl.Shard(victim).QueueLength() == 0 {
			p.Sleep(10 * time.Millisecond)
		}
		cl.FailShard(victim)
		sess.Release()
	})
	e.Spawn("queued", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_, queuedErr = cl.Prepare(p, offload.ExecRequest{DeviceID: "dev-2", AID: aid, App: app.Name()})
		returned = true
	})
	e.Run()

	if !returned {
		t.Fatal("queued request never returned from Prepare: stranded in the dead shard's wait ring")
	}
	var se *ShardError
	if !errors.Is(queuedErr, ErrShardDown) || !errors.As(queuedErr, &se) || se.Shard != victim {
		t.Fatalf("queued request error = %v, want ErrShardDown from shard %d", queuedErr, victim)
	}
	if q := cl.Shard(victim).QueueLength(); q != 0 {
		t.Fatalf("dead shard still queues %d request(s)", q)
	}
}
