package device

import (
	"runtime"
	"sync"
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// warmOffloadAllocs is what one warm offload allocates — a LAN device
// offloading a Linpack order-8 solve whose code the warehouse and the
// runtime already hold, to a bare instrumented platform (the body of the
// benchmark's device.offload_allocs): the request's AID string and the
// solve's output string. It was 12 while the AID went through Sprintf and
// hex, the grant list was built per request, the runtime's log line was
// concatenated into a ring that re-grew as it churned, and the solve's
// params struct escaped to the heap. It was 3 until the platform's session
// became a value in its runtime's slot.
const warmOffloadAllocs = 2

func TestWarmOffloadAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one set of pool slots
	e := sim.NewEngine(1)
	pl := core.New(e, core.DefaultConfig(core.KindRattrap))
	pl.SetObs(obs.NewRegistry())
	dev, err := New(e, "probe-dev", netsim.LANWiFi())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName(workload.NameLinpack)
	task := workload.Task{App: app.Name(), Method: "solve", ParamBytes: 500, Params: workload.EncodeLinpackParams(42, 8)}
	offload := func(p *sim.Proc) {
		task.Seq++
		if _, _, err := dev.Offload(p, task, app.CodeSize(), pl); err != nil {
			t.Error(err)
		}
	}
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		offload(p) // the first one boots, pushes and grows what stays grown
		allocs = testing.AllocsPerRun(500, func() { offload(p) })
	})
	e.Run()
	t.Logf("a warm offload allocates %.0f objects", allocs)
	if allocs > warmOffloadAllocs {
		t.Fatalf("a warm offload allocates %.0f objects, fence is %d", allocs, warmOffloadAllocs)
	}
}

// poolKeeps reports whether sync.Pool hands back what was put: under the
// race detector it drops a quarter of all Puts at random, and the solve's
// pooled scratch then shows up in the count.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}
