package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pooled reports whether w sits in the idle pool.
func pooled(w *worker) bool {
	idle.Lock()
	defer idle.Unlock()
	for _, x := range idle.ws {
		if x == w {
			return true
		}
	}
	return false
}

// A finished proc's worker has moved on to other procs, so a stale wake-up
// must fail loudly instead of resuming one of those.
func TestDispatchFinishedProcPanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("stale", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Run()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "finished proc") || !strings.Contains(msg, `"stale"`) {
			t.Fatalf("dispatch of a finished proc: recovered %q", msg)
		}
	}()
	p.dispatch()
}

// A proc that leaves through runtime.Goexit (t.Fatal in a test) takes its
// coroutine with it, and iter.Pull passes the exit on to the goroutine that
// stepped it: the one inside Run — for a test, the test's own, which is
// where FailNow is meant to run. The proc must count as finished, the dead
// worker must not be handed to a later proc, and the engine must be
// runnable again, with everything still queued firing.
func TestGoexitProcSignalsEngine(t *testing.T) {
	e := NewEngine(1)
	var w *worker
	dying := e.Spawn("dying", func(p *Proc) {
		w = p.w
		// Park for real first (the other event is due earlier), so the
		// exit happens on a resumed worker.
		p.Sleep(2 * time.Millisecond)
		runtime.Goexit()
	})
	e.After(time.Millisecond, func() {})
	ran := false
	e.Spawn("after", func(p *Proc) {
		p.Sleep(time.Second)
		ran = true
	})
	if returned := runOnGoroutine(e.Run); returned {
		t.Fatal("Run returned although a proc called Goexit: the exit did not reach the stepping goroutine")
	}
	if ran || e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("the exit left Run at %v with the later proc run = %v, want 2ms and false", e.Now(), ran)
	}
	if !dying.Done() || e.LiveProcs() != 1 {
		t.Fatalf("Done = %v, LiveProcs = %d after Goexit, want true and the one sleeper", dying.Done(), e.LiveProcs())
	}
	if pooled(w) {
		t.Fatal("worker whose coroutine exited is back in the pool")
	}
	e.Run()
	if !ran || e.LiveProcs() != 0 {
		t.Fatalf("second Run: later proc ran = %v, LiveProcs = %d", ran, e.LiveProcs())
	}
}

// runOnGoroutine calls run on a goroutine of its own and reports whether it
// returned, as opposed to the goroutine ending under it (runtime.Goexit).
func runOnGoroutine(run func()) (returned bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
		returned = true
	}()
	<-done
	return returned
}

// A proc's panic leaves Run as a *ProcPanic on the stepping goroutine: the
// proc's name, the original value, and the stack of the coroutine, which
// the re-raised panic's own traceback no longer has. Bookkeeping is as for
// Goexit.
func TestPanickingProcSignalsEngine(t *testing.T) {
	e := NewEngine(1)
	var w *worker
	cause := errors.New("boom")
	boom := e.Spawn("boom", func(p *Proc) {
		w = p.w
		p.Sleep(2 * time.Millisecond)
		explode(cause)
	})
	e.After(time.Millisecond, func() {})
	ran := false
	e.After(time.Second, func() { ran = true })

	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", got, got)
	}
	if pp.Proc != "boom" || pp.Value != cause || !errors.Is(pp, cause) {
		t.Fatalf("ProcPanic{Proc: %q, Value: %v}, want the proc's name and panic value", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "sim.explode") || !strings.Contains(pp.Error(), "sim.explode") {
		t.Fatalf("the proc's frames are missing from the stack:\n%s", pp.Stack)
	}
	if !strings.Contains(pp.Error(), `"boom"`) {
		t.Fatalf("Error() = %q does not name the proc", pp.Error())
	}
	if !boom.Done() || e.LiveProcs() != 0 {
		t.Fatalf("Done = %v, LiveProcs = %d after panic", boom.Done(), e.LiveProcs())
	}
	if pooled(w) {
		t.Fatal("worker whose coroutine panicked is back in the pool")
	}
	e.Run()
	if !ran {
		t.Fatal("second Run did not fire the remaining event")
	}
}

//go:noinline
func explode(v any) { panic(v) }

// Engines on different goroutines share the pool, so a worker released by
// one is taken by another at any moment. Each engine's trace must still be
// the one it produces alone. Run with -race -count=10.
func TestManyEnginesShareWorkers(t *testing.T) {
	model := func(seed int64) string {
		e := NewEngine(seed)
		var sb strings.Builder
		r := NewResource(e, "r", 2)
		for i := 0; i < 12; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < 5; step++ {
					r.Acquire(p, 1)
					p.Sleep(time.Duration(1+(int(seed)+i+step)%4) * time.Millisecond)
					r.Release(1)
					fmt.Fprintf(&sb, "%v %s %d\n", e.Now(), p.Name, step)
				}
			})
		}
		e.Run()
		if n := e.LiveProcs(); n != 0 {
			fmt.Fprintf(&sb, "%d procs never finished\n", n)
		}
		return sb.String()
	}
	const seeds = 6
	want := make([]string, seeds)
	for s := range want {
		want[s] = model(int64(s))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := (g + i) % seeds
				if got := model(int64(s)); got != want[s] {
					t.Errorf("goroutine %d: seed %d trace differs when engines run concurrently:\n%s\nwant:\n%s", g, s, got, want[s])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The pool keeps at most maxIdleWorkers parked coroutines (the runtime
// counts each as a goroutine) however many procs were alive at once: the
// rest are stopped when their proc finishes.
func TestWorkerPoolIsBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	for i := 0; i < 10*maxIdleWorkers; i++ {
		// All wake at the same instant, so every one of them parks and
		// holds a worker until then.
		e.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs never finished", n)
	}
	idle.Lock()
	n := len(idle.ws)
	idle.Unlock()
	if n > maxIdleWorkers {
		t.Fatalf("%d idle workers, cap is %d", n, maxIdleWorkers)
	}
	// A surplus worker's coroutine is gone when stop returns.
	if g := runtime.NumGoroutine(); g > base+maxIdleWorkers {
		t.Fatalf("%d goroutines after %d procs, want at most %d + %d", g, 10*maxIdleWorkers, base, maxIdleWorkers)
	}
}

// A spawn is one heap object (the Proc, which carries its start event); a
// park reuses that event and allocates nothing, whether it waits for a
// Sleep's instant, a Signal or a Resource.
func TestSpawnAndParkedSleepAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func(*Proc) {}
	e.Spawn("warm", fn) // grows the heap slice, starts the worker
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Spawn("p", fn)
		e.Run()
	}); avg > 1 {
		t.Errorf("spawn, run, finish allocates %.1f objects, want 1", avg)
	}

	stop := false
	for i := 0; i < 2; i++ {
		// Two procs waking at the same instants: neither's wake-up is ever
		// the only next event, so every Sleep parks.
		e.Spawn("sleeper", func(p *Proc) {
			for !stop {
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.RunUntil(e.Now() + Time(10*time.Millisecond))
	if avg := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + Time(10*time.Millisecond))
	}); avg != 0 {
		t.Errorf("ten parked sleeps per proc allocate %.1f objects, want 0", avg)
	}
	stop = true
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d sleepers never finished", n)
	}

	// A Wait that parks and is released by Fire rides the proc's own event
	// and the signal's inline slot: the Signal is the only object.
	stop = false
	var sig *Signal
	e.Spawn("waiter", func(p *Proc) {
		for !stop {
			sig = NewSignal(e)
			p.Wait(sig)
		}
	})
	e.Run() // parks the waiter on the first signal
	if avg := testing.AllocsPerRun(200, func() {
		sig.Fire()
		e.Run()
	}); avg > 1 {
		t.Errorf("a parked Wait released by Fire allocates %.1f objects, want 1 (the Signal)", avg)
	}
	stop = true
	sig.Fire()
	e.Run()

	// Two procs trading a one-unit resource: every Acquire but the first
	// queues behind the holder and is admitted by its Release.
	stop = false
	r := NewResource(e, "r", 1)
	queued := 0
	for i := 0; i < 2; i++ {
		e.Spawn("trader", func(p *Proc) {
			for !stop {
				if r.InUse() == 1 {
					queued++
				}
				r.Acquire(p, 1)
				p.Sleep(time.Millisecond)
				r.Release(1)
			}
		})
	}
	e.RunUntil(e.Now() + Time(10*time.Millisecond))
	queued = 0
	if avg := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + Time(10*time.Millisecond))
	}); avg != 0 {
		t.Errorf("ten queued acquires allocate %.1f objects, want 0", avg)
	}
	if queued < 1000 {
		t.Fatalf("only %d acquires queued: the model does not exercise the wait queue", queued)
	}
	stop = true
	e.Run()
	if n := e.LiveProcs(); n != 0 || r.InUse() != 0 || r.Queued() != 0 {
		t.Fatalf("LiveProcs = %d, InUse = %d, Queued = %d after the traders stopped", n, r.InUse(), r.Queued())
	}
}
