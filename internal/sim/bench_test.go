package sim

import "testing"

// The three benchmarks time what the repository benchmark's sim.spawn_ns and
// sim.signal_wait_ns probes time, plus the hand-off no probe covers, in a
// form that runs in two seconds: `make bench-engine`.

// BenchmarkSpawn: a proc's whole life — the Proc, its start event, a worker
// out of the pool and back.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func(*Proc) {}
	for i := 0; i < b.N; i++ {
		e.Spawn("empty", fn)
	}
	e.Run()
}

// BenchmarkSignalWait: a Wait that parks, the event that fires the signal,
// and the wake-up — two coroutine switches and two heap pushes.
func BenchmarkSignalWait(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig := NewSignal(e)
			e.After(1, sig.Fire)
			p.Wait(sig)
		}
	})
	e.Run()
}

// BenchmarkResourceHandoff: two procs trading a one-unit resource, so every
// Acquire queues behind the holder and is admitted by its Release.
func BenchmarkResourceHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	for i := 0; i < 2; i++ {
		n := (b.N + i) / 2
		e.Spawn("trader", func(p *Proc) {
			for j := 0; j < n; j++ {
				r.Acquire(p, 1)
				p.Sleep(1)
				r.Release(1)
			}
		})
	}
	e.Run()
}
