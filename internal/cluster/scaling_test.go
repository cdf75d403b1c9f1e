package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestShardScalingFollowsPlacement is the shard-scaling law in virtual
// time. Every device offloads its own app (a distinct AID, the unit the
// ring places) in a closed loop, and each shard has a single runtime, so a
// shard's work is proportional to the AIDs it owns and the busiest shard
// paces the cell: going from one shard to n must shorten the makespan by
// devices / busiest-shard-AIDs — no more (placement is the bound) and no
// less (nothing but placement may serialize shards that share one engine).
// The busiest-shard count is read from the live membership, so a ring
// change moves the expectation with it.
func TestShardScalingFollowsPlacement(t *testing.T) {
	const (
		devices  = 32
		requests = 20 // per device, after the warm-up
		order    = 64 // ~0.15 s of virtual execution per request
	)
	app, err := workload.ByName(workload.NameLinpack)
	if err != nil {
		t.Fatal(err)
	}
	params := workload.EncodeLinpackParams(7, order)
	base := offload.AID(app.Name(), app.CodeSize())
	aid := func(dev int) string { return fmt.Sprintf("%s#d%d", base, dev) }

	// cell runs the fleet against n shards and returns the virtual time
	// from the first warm request to the last result, with the number of
	// AIDs on the busiest shard.
	cell := func(n int) (makespan time.Duration, busiest int) {
		e := sim.NewEngine(1)
		cfg := core.DefaultConfig(core.KindRattrap)
		cfg.MaxRuntimes = 1
		cfg.IdleTimeout = 0 // keep every shard's runtime for the whole cell
		cl := NewReplicated(e, cfg, n, 1)

		owned := make([]int, n)
		for dev := 0; dev < devices; dev++ {
			owned[cl.Membership().Primary(aid(dev))]++
		}
		for _, k := range owned {
			if k > busiest {
				busiest = k
			}
		}

		exec := func(p *sim.Proc, dev, seq int) {
			req := offload.ExecRequest{
				DeviceID: fmt.Sprintf("dev-%d", dev), AID: aid(dev), App: app.Name(),
				Method: "solve", Seq: seq, Params: params,
			}
			sess, err := cl.Prepare(p, req)
			if err != nil {
				t.Errorf("%d shards, device %d, request %d: %v", n, dev, seq, err)
				return
			}
			defer sess.Release()
			if sess.NeedCode() {
				if err := sess.PushCode(p, offload.CodePush{AID: req.AID, App: app.Name(), Size: app.CodeSize()}); err != nil {
					t.Errorf("%d shards, device %d: push: %v", n, dev, err)
					return
				}
			}
			if res, err := sess.Execute(p); err != nil || res.Err != "" {
				t.Errorf("%d shards, device %d, request %d: %v %s", n, dev, seq, err, res.Err)
			}
		}
		// Warm-up: boot each shard's runtime and stage every device's code.
		for dev := 0; dev < devices; dev++ {
			e.Spawn(fmt.Sprintf("warm-%d", dev), func(p *sim.Proc) { exec(p, dev, 0) })
		}
		e.Run()

		start, end := e.Now(), e.Now()
		for dev := 0; dev < devices; dev++ {
			e.Spawn(fmt.Sprintf("dev-%d", dev), func(p *sim.Proc) {
				for seq := 1; seq <= requests; seq++ {
					exec(p, dev, seq)
				}
				if e.Now() > end {
					end = e.Now()
				}
			})
		}
		e.Run()
		return (end - start).Duration(), busiest
	}

	one, busiestOne := cell(1)
	if busiestOne != devices {
		t.Fatalf("one shard owns %d of %d AIDs", busiestOne, devices)
	}
	for _, n := range []int{2, 4} {
		span, busiest := cell(n)
		got := float64(one) / float64(span)
		want := float64(devices) / float64(busiest)
		t.Logf("%d shards: busiest shard owns %d of %d AIDs, makespan %v vs %v on one shard: %.3fx, placement bound %.3fx",
			n, busiest, devices, span, one, got, want)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%d shards: speedup %.3fx, want the placement bound %d/%d = %.3fx within 2%%",
				n, got, devices, busiest, want)
		}
	}
}
