package core

import (
	"fmt"
	"testing"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestReapedRuntimesLeaveNoIndexEntries: boot → execute → reap rounds with
// an AID that is never requested again must leave nothing behind that
// keeps the dead runtime reachable — no scheduler entry (the affinity
// heaps were only ever emptied by a later Pick on the same AID) and no
// page-cache key of the reaped container's private delta.
func TestReapedRuntimesLeaveNoIndexEntries(t *testing.T) {
	for _, policy := range []SchedulerPolicy{SchedAffinity, SchedFIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			e := sim.NewEngine(1)
			cfg := DefaultConfig(KindRattrap)
			cfg.Scheduler = policy
			cfg.IdleTimeout = time.Second
			pl := New(e, cfg)
			d := mustDevice(t, e, "phone-1")
			app, _ := workload.ByName(workload.NameLinpack)

			const rounds = 5
			var cids []string
			e.Spawn("flow", func(p *sim.Proc) {
				for i := 0; i < rounds; i++ {
					// A distinct code size is a distinct AID.
					if _, _, err := d.Offload(p, d.NewTask(app), app.CodeSize()+host.Bytes(i), pl); err != nil {
						t.Error(err)
						return
					}
					cid := pl.slots.head.id
					cids = append(cids, cid)
					if !pl.Server.Cached(cid + "-delta:/data/local.prop") {
						t.Errorf("round %d: %s's boot writes are not in the page cache while it lives", i, cid)
					}
					p.Sleep(10 * time.Second) // far past the idle timeout
					if n := pl.RuntimeCount(); n != 0 {
						t.Errorf("round %d: %d runtimes left after the idle timeout", i, n)
					}
				}
			})
			e.Run()
			if len(cids) != rounds {
				t.Fatalf("completed %d of %d rounds", len(cids), rounds)
			}

			switch s := pl.sched.(type) {
			case *AffinityScheduler:
				if len(s.idle) != 0 || len(s.affinity) != 0 {
					t.Errorf("affinity scheduler retains %d idle entries and %d per-AID heaps for reaped runtimes", len(s.idle), len(s.affinity))
				}
			case *FIFOScheduler:
				if len(s.idle) != 0 {
					t.Errorf("fifo scheduler retains %d idle entries for reaped runtimes", len(s.idle))
				}
			}
			for _, cid := range cids {
				for _, f := range []string{"/data/dalvik-cache/system@offloadruntime.dex", "/data/local.prop", "/data/misc/boot.log"} {
					if key := fmt.Sprintf("%s-delta:%s", cid, f); pl.Server.Cached(key) {
						t.Errorf("page cache still holds %s of a reaped runtime", key)
					}
				}
			}
		})
	}
}
