package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestRingDeterministic: placement is a pure function of (shards, vnodes,
// aid) — two rings built with the same parameters agree on every key, and
// a different shard count produces a different (but still deterministic)
// mapping for at least one key.
// newRing builds a ring of shards 0..n-1 with DefaultVnodes points each.
func newRing(n int) *Ring {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewRingMembers(ids, 0)
}

func TestRingDeterministic(t *testing.T) {
	a, b := newRing(4), newRing(4)
	moved := false
	three := newRing(3)
	for i := 0; i < 256; i++ {
		aid := fmt.Sprintf("app-%d", i)
		if a.Owner(aid) != b.Owner(aid) {
			t.Fatalf("same ring parameters disagree on %q", aid)
		}
		if three.Owner(aid) != a.Owner(aid) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("3-shard and 4-shard rings agree on every key")
	}
}

// TestRingSpread: a family of AIDs sharing a long common prefix (the
// realistic shape — same app digest, different tenant suffix) must spread
// over all shards, with no shard starved and none holding more than twice
// its fair share. Raw FNV without the avalanche finalizer fails this badly
// (whole families collapse onto one shard).
func TestRingSpread(t *testing.T) {
	const keys = 256
	for _, shards := range []int{2, 4, 8} {
		r := newRing(shards)
		counts := make([]int, shards)
		for i := 0; i < keys; i++ {
			counts[r.Owner(fmt.Sprintf("9e107d9d372bb6826bd81d3542a419d6#d%d", i))]++
		}
		fair := keys / shards
		for s, n := range counts {
			if n == 0 {
				t.Fatalf("%d shards: shard %d owns no keys (%v)", shards, s, counts)
			}
			if n > 2*fair {
				t.Fatalf("%d shards: shard %d owns %d of %d keys, over 2x fair share (%v)",
					shards, s, n, keys, counts)
			}
		}
	}
}

// TestRingSingleShard: every AID maps to shard 0.
func TestRingSingleShard(t *testing.T) {
	r := newRing(1)
	for i := 0; i < 64; i++ {
		if s := r.Owner(fmt.Sprintf("k%d", i)); s != 0 {
			t.Fatalf("1-shard ring sent %d to shard %d", i, s)
		}
	}
}

// TestShardErrorRoundTrip drives a 2-shard cluster into admission overload
// and checks the satellite contract end to end: the error a device sees is
// a *ShardError naming the shard, errors.As still digs out the shard's
// *offload.OverloadedError with its retry-after hint, and errors.Is still
// matches offload.ErrOverloaded.
func TestShardErrorRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := core.ServingConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1 // the serving preset's wait ring holds 2 × 1
	cl := NewReplicated(e, cfg, 2, 1)

	app, err := workload.ByName(workload.NameLinpack)
	if err != nil {
		t.Fatal(err)
	}
	aid := offload.AID(app.Name(), app.CodeSize())
	shard := cl.Owner(aid)

	// Four requests race for the owning shard's single booting runtime:
	// one boots, two queue (the ring's bound), one must be rejected.
	errs := make([]error, 4)
	for i := range errs {
		i := i
		e.Spawn(fmt.Sprintf("dev-%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			task := app.NewTask(e.Rand(), 0)
			_, errs[i] = cl.Prepare(p, offload.ExecRequest{
				DeviceID: fmt.Sprintf("dev-%d", i), AID: aid, App: task.App,
				Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes,
			})
		})
	}
	e.Run()

	rejected := errs[3]
	if rejected == nil || errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("want only the fourth request rejected: %v", errs)
	}
	var se *ShardError
	if !errors.As(rejected, &se) {
		t.Fatalf("rejection is not a *ShardError: %v", rejected)
	}
	if se.Shard != shard {
		t.Fatalf("ShardError names shard %d, ring owner is %d", se.Shard, shard)
	}
	if !strings.HasPrefix(rejected.Error(), fmt.Sprintf("shard %d: ", shard)) {
		t.Fatalf("flattened message does not name the shard: %q", rejected.Error())
	}
	var oe *offload.OverloadedError
	if !errors.As(rejected, &oe) {
		t.Fatalf("errors.As lost the OverloadedError through ShardError: %v", rejected)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after hint lost in transit: %+v", oe)
	}
	if !errors.Is(rejected, offload.ErrOverloaded) {
		t.Fatal("errors.Is(ErrOverloaded) failed through ShardError")
	}
}

// TestShardErrorIsBlocked: errors.Is must see core.ErrBlocked through the
// shard wrapper (the router surfaces access-controller rejections this
// way).
func TestShardErrorIsBlocked(t *testing.T) {
	wrapped := &ShardError{Shard: 3, Err: fmt.Errorf("%w: evil-app", core.ErrBlocked)}
	if !errors.Is(wrapped, core.ErrBlocked) {
		t.Fatal("errors.Is(ErrBlocked) failed through ShardError")
	}
	if got := wrapped.Error(); !strings.HasPrefix(got, "shard 3: ") {
		t.Fatalf("message: %q", got)
	}
}

// TestClusterRoutesByAID: with enough distinct AIDs, a 4-shard cluster
// boots runtimes on more than one shard, each shard's runtimes carry its
// CID prefix, and every app's warehouse entry lives on exactly the shard
// the ring names.
func TestClusterRoutesByAID(t *testing.T) {
	e := sim.NewEngine(7)
	cfg := core.DefaultConfig(core.KindRattrap)
	cl := NewReplicated(e, cfg, 4, 1)

	app, _ := workload.ByName(workload.NameLinpack)
	const devices = 12
	for i := 0; i < devices; i++ {
		i := i
		aid := fmt.Sprintf("%s#d%d", offload.AID(app.Name(), app.CodeSize()), i)
		e.Spawn(fmt.Sprintf("dev-%d", i), func(p *sim.Proc) {
			task := app.NewTask(e.Rand(), 0)
			sess, err := cl.Prepare(p, offload.ExecRequest{
				DeviceID: fmt.Sprintf("dev-%d", i), AID: aid, App: task.App,
				Method: task.Method, Params: task.Params, ParamBytes: task.ParamBytes,
			})
			if err != nil {
				t.Errorf("dev-%d prepare: %v", i, err)
				return
			}
			if sess.NeedCode() {
				if err := sess.PushCode(p, offload.CodePush{AID: aid, App: app.Name(), Size: app.CodeSize()}); err != nil {
					t.Errorf("dev-%d push: %v", i, err)
					sess.Release()
					return
				}
			}
			if _, err := sess.Execute(p); err != nil {
				t.Errorf("dev-%d execute: %v", i, err)
			}
			sess.Release()
		})
	}
	e.Run()

	shardsUsed := 0
	for s := 0; s < cl.Shards(); s++ {
		rts := cl.Shard(s).DB().List()
		if len(rts) > 0 {
			shardsUsed++
		}
		for _, rt := range rts {
			if !strings.HasPrefix(rt.CID, CIDPrefix(s)) {
				t.Fatalf("shard %d runtime CID %q missing prefix %q", s, rt.CID, CIDPrefix(s))
			}
		}
	}
	if shardsUsed < 2 {
		t.Fatalf("only %d shard(s) booted runtimes for %d distinct AIDs", shardsUsed, devices)
	}
	if entries := warehouseEntries(cl); entries != devices {
		t.Fatalf("warehouse entries = %d, want %d (one per AID, each on its owning shard)", entries, devices)
	}
}

// warehouseEntries sums the entries of every shard's warehouse.
func warehouseEntries(cl *Cluster) int {
	n := 0
	for s := 0; s < cl.Shards(); s++ {
		if wh := cl.Shard(s).Warehouse(); wh != nil {
			entries, _, _ := wh.Stats()
			n += entries
		}
	}
	return n
}
