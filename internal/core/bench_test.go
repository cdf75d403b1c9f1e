package core

import (
	"fmt"
	"testing"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// BenchmarkDispatcherAcquire measures an acquire/release cycle against a
// warm pool: every acquire is an affinity-index hit (the hot path a
// warehouse-hit request takes), with no boot or code load in the loop.
func BenchmarkDispatcherAcquire(b *testing.B) {
	const pool = 8
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = pool
	cfg.IdleTimeout = 0 // no reap events; the loop stays pure dispatch
	pl := New(e, cfg)

	aids := make([]string, pool)
	for i := range aids {
		aids[i] = fmt.Sprintf("app-%d", i)
	}
	e.Spawn("warm", func(p *sim.Proc) {
		held := make([]*slot, pool)
		for i := 0; i < pool; i++ {
			sl, err := pl.acquireSlot(p, aids[i], nil, nil)
			if err != nil {
				b.Error(err)
				return
			}
			if err := sl.rt.LoadCode(p, aids[i], 4*host.MB, false); err != nil {
				b.Error(err)
				return
			}
			held[i] = sl
		}
		for _, sl := range held {
			pl.releaseSlot(sl)
		}
	})
	e.Run()
	if b.Failed() {
		b.FailNow()
	}

	b.ResetTimer()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sl, err := pl.acquireSlot(p, aids[i%pool], nil, nil)
			if err != nil {
				b.Error(err)
				return
			}
			pl.releaseSlot(sl)
		}
	})
	e.Run()
}

// coldBootPlatform returns an optimized platform that has booted and stopped
// one runtime, so what a platform's first boot leaves behind for good (pooled
// engine workers, grown maps) is already there.
func coldBootPlatform(tb testing.TB) (*sim.Engine, *Platform) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.IdleTimeout = 0 // stops are explicit
	pl := New(e, cfg)
	e.Spawn("warm", func(p *sim.Proc) { coldBoot(tb, pl, p) })
	e.Run()
	return e, pl
}

// coldBoot boots one runtime and stops it again: container create, driver
// load, the Figure 6 sequence over the shared layer, registration, and the
// teardown that unloads the driver — tcp-cold's request minus the request.
func coldBoot(tb testing.TB, pl *Platform, p *sim.Proc) {
	info, err := pl.BootRuntime(p)
	if err != nil {
		tb.Error(err)
		return
	}
	if err := pl.StopRuntime(p, info.CID); err != nil {
		tb.Error(err)
	}
}

// BenchmarkColdBoot measures the boot layer alone (make bench-coldboot):
// wall-clock ns and allocations per boot + stop, -benchmem.
func BenchmarkColdBoot(b *testing.B) {
	e, pl := coldBootPlatform(b)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			coldBoot(b, pl, p)
		}
	})
	e.Run()
}

// coldBootAllocs is what a boot + stop allocates today: the runtime's and
// the container's own objects, per-namespace driver state, Binder
// registrations, the slot and its records. The fence leaves room for two
// more; a table rebuilt per boot or a key built per file read costs tens.
const coldBootAllocs = 73

func TestColdBootAllocs(t *testing.T) {
	e, pl := coldBootPlatform(t)
	var allocs float64
	e.Spawn("fence", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(50, func() { coldBoot(t, pl, p) })
	})
	e.Run()
	if allocs > coldBootAllocs+2 {
		t.Fatalf("a cold boot + stop allocates %.0f objects, fence is %d + 2", allocs, coldBootAllocs)
	}
	t.Logf("a cold boot + stop allocates %.0f objects", allocs)
}
