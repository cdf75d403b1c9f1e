package realtime

import (
	"sync"
	"testing"
	"time"

	"rattrap/internal/sim"
)

// fakeClock is a manually advanced wall clock: tests freeze time, inspect
// the timers the driver arms, and fire them by advancing.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	nows   int // Now calls: every pass of the driver's loop makes at least one
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Time
	ch      chan time.Time
	fired   bool
	stopped bool
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nows++
	return c.now
}

// calls reports how often Now and Timer have been called.
func (c *fakeClock) calls() (nows, timers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nows, len(c.timers)
}

func (c *fakeClock) Timer(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	return t.ch, func() {
		c.mu.Lock()
		t.stopped = true
		c.mu.Unlock()
	}
}

// Advance moves the clock and fires every due timer.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.timers {
		if !t.fired && !t.stopped && !t.at.After(c.now) {
			t.fired = true
			t.ch <- c.now
		}
	}
}

// armed reports how many live timers are pending.
func (c *fakeClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.fired && !t.stopped {
			n++
		}
	}
	return n
}

// TestDriverWakeOnInjectNotTickQuantized is the fake-clock pacing test:
// with the wall clock frozen solid — no tick, no timer can ever fire — a
// zero-virtual-time injection must still complete, because the injector
// drains due work synchronously. A tick-driven loop would hang forever.
func TestDriverWakeOnInjectNotTickQuantized(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 1)
	d.clk = newFakeClock()
	d.Start()
	defer d.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Do("warehouse-hit", func(p *sim.Proc) {}) // zero virtual time
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-virtual-time Do did not complete with the clock frozen: inject latency is tick-quantized")
	}
	if w := d.TimerWakeups(); w != 0 {
		t.Fatalf("timer wakeups = %d, want 0 (clock never moved)", w)
	}
}

// TestDriverPacesSleepOnFakeClock proves the loop sleeps until exactly
// the next event's wall deadline: a 300 ms virtual sleep completes when —
// and only when — the fake clock crosses 300 ms.
func TestDriverPacesSleepOnFakeClock(t *testing.T) {
	e := sim.NewEngine(1)
	fc := newFakeClock()
	d := NewDriver(e, 1)
	d.clk = fc
	d.Start()
	defer d.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Do("sleeper", func(p *sim.Proc) { p.Sleep(300 * time.Millisecond) })
	}()

	// The loop must arm a timer for the sleep's deadline.
	deadline := time.Now().Add(5 * time.Second)
	for fc.armed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("driver never armed a timer for the pending event")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("virtual sleep completed before the wall clock reached it")
	default:
	}

	fc.Advance(300 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual sleep did not complete after the clock crossed its deadline")
	}
	if d.Now() < sim.Time(300*time.Millisecond) {
		t.Fatalf("virtual clock %v did not reach the sleep end", d.Now())
	}
}

// TestDriverYieldsThroughShortWaits: an event nearer than yieldBelow is not
// worth a sleep — the kernel would round it up to its timer slack — so the
// loop must keep planning (yielding the P in between) without ever asking
// the clock for a timer, and run the event once the clock has passed it. A
// wait beyond the threshold still gets its timer, and an idle loop neither
// holds one nor goes round.
func TestDriverYieldsThroughShortWaits(t *testing.T) {
	e := sim.NewEngine(1)
	fc := newFakeClock()
	d := NewDriver(e, 1)
	d.clk = fc
	d.Start()
	defer d.Stop()

	do := func(sleep time.Duration) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.Do("sleeper", func(p *sim.Proc) { p.Sleep(sleep) })
		}()
		return done
	}
	// until polls cond on the real clock; the fake one stays where it is.
	until := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Idle: Start reads the clock, the loop's first pass reads it, finds
	// nothing and blocks. No pass after that, no timer ever.
	until("the idle loop has made its first pass", func() bool { n, _ := fc.calls(); return n >= 2 })
	time.Sleep(20 * time.Millisecond)
	if nows, timers := fc.calls(); nows != 2 || timers != 0 {
		t.Fatalf("idle driver: %d clock reads after the first pass, %d timers; want none of either", nows-2, timers)
	}

	// Below the threshold: passes, no timer, no completion while the clock
	// stands still.
	short := do(yieldBelow / 2)
	before, _ := fc.calls()
	until("the loop has gone round 100 times on the short wait", func() bool { n, _ := fc.calls(); return n > before+100 })
	select {
	case <-short:
		t.Fatal("short virtual sleep completed before the wall clock reached it")
	default:
	}
	fc.Advance(yieldBelow / 2)
	select {
	case <-short:
	case <-time.After(5 * time.Second):
		t.Fatal("short virtual sleep did not complete after the clock crossed its deadline")
	}
	if _, timers := fc.calls(); timers != 0 || d.TimerWakeups() != 0 {
		t.Fatalf("a wait of %v armed %d timers and counted %d timer wakeups, want 0 and 0", yieldBelow/2, timers, d.TimerWakeups())
	}

	// Above it: one timer, armed for the whole wait, one wakeup.
	long := do(2 * yieldBelow)
	until("the loop has armed a timer for the long wait", func() bool { return fc.armed() == 1 })
	fc.Advance(2 * yieldBelow)
	select {
	case <-long:
	case <-time.After(5 * time.Second):
		t.Fatal("long virtual sleep did not complete after its timer fired")
	}
	if _, timers := fc.calls(); timers != 1 || d.TimerWakeups() != 1 {
		t.Fatalf("a wait of %v armed %d timers and counted %d timer wakeups, want 1 and 1", 2*yieldBelow, timers, d.TimerWakeups())
	}
}

// TestDriverPacesInlineSleeps: sim.Proc.Sleep advances the engine's clock
// itself when nothing is queued before its wake-up, but never past the
// instant the driver's RunUntil allows — so at speed 1, on the real clock,
// a chain of sleeps inside Do still takes at least its virtual length.
func TestDriverPacesInlineSleeps(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 1)
	d.Start()
	defer d.Stop()
	const step, steps = 10 * time.Millisecond, 4
	start := time.Now()
	d.Do("sleeper", func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			p.Sleep(step)
		}
	})
	if el := time.Since(start); el < steps*step {
		t.Fatalf("%d sleeps of %v inside Do took %v of wall time: virtual time ran ahead of the wall clock", steps, step, el)
	}
}

// TestDriverIdleHoldsNoTimer: an idle driver performs zero timer wakeups.
func TestDriverIdleHoldsNoTimer(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 1)
	d.Start()
	time.Sleep(60 * time.Millisecond)
	_ = d.Now()
	time.Sleep(20 * time.Millisecond)
	if w := d.TimerWakeups(); w != 0 {
		t.Fatalf("idle driver fired %d timer wakeups, want 0", w)
	}
	d.Stop()
}

// TestDriverZeroTimeDoLatency: 100 back-to-back zero-virtual-time Do
// calls must complete far faster than a polling loop's tick each (a 2 ms
// ticker floors every engine interaction at ~2 ms).
func TestDriverZeroTimeDoLatency(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 1)
	d.Start()
	defer d.Stop()
	start := time.Now()
	for i := 0; i < 100; i++ {
		d.Do("noop", func(p *sim.Proc) {})
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("100 zero-time Do calls took %v; inject latency looks tick-quantized", el)
	}
}

// TestDriverConcurrentInjectNowStop exercises the mutex discipline under
// -race: parallel injectors, Now pollers, and an idempotent Stop.
func TestDriverConcurrentInjectNowStop(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDriver(e, 2000) // fast pacing keeps the virtual sleeps cheap
	d.Start()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				d.Do("w", func(p *sim.Proc) {
					p.Sleep(time.Duration(i%3) * time.Millisecond)
				})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last sim.Time
			for i := 0; i < 200; i++ {
				now := d.Now()
				if now < last {
					t.Error("virtual time went backwards")
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	d.Stop()
	d.Stop() // idempotent
}
