package sim

import (
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
// goroutine with it: the engine must still get control back, the proc must
// count as finished, and the dead worker must not be handed to a later proc.
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
	e.Run()
	if !ran {
		t.Fatal("engine stopped after a proc's Goexit")
	}
	if !dying.Done() || e.LiveProcs() != 0 {
		t.Fatalf("Done = %v, LiveProcs = %d after Goexit", dying.Done(), e.LiveProcs())
	}
	if pooled(w) {
		t.Fatal("worker whose goroutine exited is back in the pool")
	}
}

// The same for a panic. The panic kills the process once it leaves the
// worker's goroutine, so this test runs the worker loop on a goroutine of
// its own that recovers it, and plays the engine's side of the hand-off.
func TestPanickingProcSignalsEngine(t *testing.T) {
	e := NewEngine(1)
	w := &worker{resume: make(chan *Proc), parked: make(chan struct{})}
	p := &Proc{E: e, Name: "boom", fn: func(*Proc) { panic("boom") }}
	e.procs++
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		w.loop()
	}()
	p.w = w
	w.resume <- p
	<-w.parked
	if r := <-recovered; r != "boom" {
		t.Fatalf("recovered %v, want the proc's panic", r)
	}
	if !p.Done() || e.LiveProcs() != 0 {
		t.Fatalf("Done = %v, LiveProcs = %d after panic", p.Done(), e.LiveProcs())
	}
	if pooled(w) {
		t.Fatal("worker whose goroutine panicked is back in the pool")
	}
}

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

// The pool keeps at most maxIdleWorkers parked goroutines however many
// procs were alive at once: the rest exit when their proc finishes.
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
	// A surplus worker signals the engine before its goroutine is gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+maxIdleWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d procs, want at most %d + %d", runtime.NumGoroutine(), 10*maxIdleWorkers, base, maxIdleWorkers)
		}
		time.Sleep(time.Millisecond)
	}
}

// A spawn is one heap object (the Proc, which carries its start event); a
// Sleep that really parks reuses that event and allocates nothing.
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
}
