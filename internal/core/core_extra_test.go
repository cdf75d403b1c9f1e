package core

import (
	"fmt"
	"strings"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

func TestStopRuntimeErrors(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	app, _ := workload.ByName(workload.NameLinpack)
	e.Spawn("t", func(p *sim.Proc) {
		if err := pl.StopRuntime(p, "ghost"); err == nil {
			t.Error("stopping unknown runtime succeeded")
		}
		d := mustDeviceIn(t, e, "phone-1")
		task := d.NewTask(app)
		req := offload.ExecRequest{AID: offload.AID(app.Name(), app.CodeSize()),
			App: task.App, Method: task.Method, Params: task.Params}
		s, err := pl.Prepare(p, req)
		if err != nil {
			t.Fatal(err)
		}
		cid := pl.DB().List()[0].CID
		if err := pl.StopRuntime(p, cid); err == nil || !strings.Contains(err.Error(), "is active") {
			t.Errorf("stopping a claimed runtime: err = %v", err)
		}
		s.Release()
		if err := pl.StopRuntime(p, cid); err != nil {
			t.Errorf("stopping idle runtime: %v", err)
		}
	})
	e.Run()
}

func TestTotalDiskBytesCountsSharedOnce(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	e.Spawn("t", func(p *sim.Proc) {
		if _, err := pl.BootRuntime(p); err != nil {
			t.Fatal(err)
		}
		one := pl.TotalDiskBytes()
		if _, err := pl.BootRuntime(p); err != nil {
			t.Fatal(err)
		}
		two := pl.TotalDiskBytes()
		// Adding a second container adds only its private delta (≈7 MB),
		// not another copy of the shared layer (≈230 MB).
		delta := two - one
		if delta <= 0 || delta > 10*host.MB {
			t.Fatalf("second container added %d MB of disk, want only its delta", delta/host.MB)
		}
		if one < pl.shared.Layer.Size() {
			t.Fatal("total disk does not include the shared layer")
		}
	})
	e.Run()
}

func TestAbandonedCodePushWakesWaiters(t *testing.T) {
	// Device A claims the in-flight push and then aborts without pushing;
	// device B, waiting on the warehouse, must fail fast rather than hang.
	e, pl := newPlatform(KindRattrap)
	app, _ := workload.ByName(workload.NameChess)
	aid := offload.AID(app.Name(), app.CodeSize())
	e.Spawn("t", func(p *sim.Proc) {
		d := mustDeviceIn(t, e, "phone-1")
		task := d.NewTask(app)
		req := offload.ExecRequest{AID: aid, App: task.App, Method: task.Method, Params: task.Params}
		sA, err := pl.Prepare(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if !sA.NeedCode() {
			t.Fatal("A should own the push")
		}
		sB, err := pl.Prepare(p, req) // boots runtime 2, sees the claim
		if err != nil {
			t.Fatal(err)
		}
		if sB.NeedCode() {
			t.Fatal("B should wait on A's in-flight push")
		}
		sA.Release() // A aborts without pushing
		res, err := sB.Execute(p)
		if err == nil && res.Err == "" {
			t.Fatal("B executed without any code ever arriving")
		}
		sB.Release()
	})
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d procs hung on the abandoned push", e.LiveProcs())
	}
}

func TestPrepareAfterBlockedIsRejected(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	e.Spawn("t", func(p *sim.Proc) {
		tbl := pl.access.Analyze(p, pl.Server, "Malware", nil)
		tbl.Blocked = true
		_, err := pl.Prepare(p, offload.ExecRequest{AID: "x", App: "Malware"})
		if err == nil {
			t.Error("blocked app prepared successfully")
		}
	})
	e.Run()
}

func TestSnapshotAggregates(t *testing.T) {
	db := NewContainerDB()
	db.Put(&RuntimeInfo{CID: "a", MemMB: 96, DiskBytes: 7 * host.MB, Executed: 3, Busy: true})
	db.Put(&RuntimeInfo{CID: "b", MemMB: 96, DiskBytes: 7 * host.MB, Executed: 2})
	s := db.Snapshot()
	if s.TotalMemMB != 192 || s.TotalExec != 5 || s.BusyRuntimes != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if _, ok := db.Get("a"); !ok {
		t.Fatal("Get(a) failed")
	}
	db.Remove("a")
	if db.Count() != 1 {
		t.Fatalf("count = %d", db.Count())
	}
}

// TestCIDMatchesSprintfForm: the stack-built runtime ID equals the Sprintf
// form it replaced for every kind, with and without a shard prefix (short
// ones and one that outgrows the stack buffer), at any boot number; and it
// allocates only the string it returns.
func TestCIDMatchesSprintfForm(t *testing.T) {
	for _, kind := range Kinds() {
		for _, prefix := range []string{"", "s3-", strings.Repeat("shard-", 8)} {
			pl := &Platform{cfg: Config{Kind: kind, CIDPrefix: prefix}}
			for _, n := range []int{1, 9, 10, 255, 256, 65537, 1 << 40} {
				want := fmt.Sprintf("%s%s-%d", prefix, kindSlug(kind), n)
				if got := pl.cid(n); got != want {
					t.Fatalf("cid(%d) = %q, Sprintf form %q", n, got, want)
				}
			}
		}
	}
	pl := &Platform{cfg: Config{Kind: KindRattrap, CIDPrefix: "s1-"}}
	if n := testing.AllocsPerRun(1000, func() { _ = pl.cid(123456) }); n > 1 {
		t.Fatalf("cid allocates %.1f times, want at most 1 (the returned string)", n)
	}
}
