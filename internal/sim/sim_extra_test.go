package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceUseFor(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			r.UseFor(p, 1, Time(time.Second))
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("resource still held: %d", r.InUse())
	}
}

func TestResourceQueuedCount(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(2 * time.Second)
		r.Release(1)
	})
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Millisecond)
			r.Acquire(p, 1)
			r.Release(1)
		})
	}
	e.After(time.Second, func() {
		if got := r.Queued(); got != 3 {
			t.Errorf("queued = %d, want 3", got)
		}
	})
	e.Run()
}

func TestSignalOnFire(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var order []string
	s.OnFire(func() { order = append(order, "cb1") })
	e.Spawn("x", func(p *Proc) {
		p.Sleep(time.Second)
		s.Fire()
	})
	e.Run()
	// Registering on a fired signal still runs (as a fresh event).
	s.OnFire(func() { order = append(order, "cb2") })
	e.Run()
	if len(order) != 2 || order[0] != "cb1" || order[1] != "cb2" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("x", func(p *Proc) { p.Sleep(time.Second) })
	if p.Done() {
		t.Fatal("proc done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("proc not done after Run")
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("x", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-time.Second)
	})
	e.Run()
}

// A proc that ends in runtime.Goexit ends the goroutine that called Run with
// it, as t.Fatal inside a proc should. The engine is not wedged: a second
// Run fires everything that was still queued.
func TestEngineSurvivesProcGoexit(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Spawn("dying", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	e.After(time.Second, func() { ran = true })
	if runOnGoroutine(func() { e.RunUntil(Time(time.Minute)) }) {
		t.Fatal("RunUntil returned although a proc called Goexit")
	}
	if ran || e.LiveProcs() != 0 {
		t.Fatalf("after the exit: later event ran = %v, LiveProcs = %d, want false and 0", ran, e.LiveProcs())
	}
	e.Run()
	if !ran {
		t.Fatal("engine stopped after abnormal proc exit")
	}
}

// Property: N procs each sleeping a random duration all finish, the final
// clock equals the maximum sleep, and no procs leak.
func TestPropertyAllProcsFinish(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 50 {
			return true
		}
		e := NewEngine(1)
		var max Time
		finished := 0
		for _, d := range durs {
			d := time.Duration(d) * time.Microsecond
			if Time(d) > max {
				max = Time(d)
			}
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				finished++
			})
		}
		e.Run()
		return finished == len(durs) && e.Now() == max && e.LiveProcs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource never exceeds capacity and serves everyone.
func TestPropertyResourceNeverOvercommits(t *testing.T) {
	f := func(holds []uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		if len(holds) == 0 || len(holds) > 40 {
			return true
		}
		e := NewEngine(1)
		r := NewResource(e, "r", capacity)
		ok := true
		r.OnChange(func(n int) {
			if n < 0 || n > capacity {
				ok = false
			}
		})
		served := 0
		for _, h := range holds {
			n := int(h)%capacity + 1
			d := time.Duration(h) * time.Microsecond
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p, n)
				p.Sleep(d)
				r.Release(n)
				served++
			})
		}
		e.Run()
		return ok && served == len(holds) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reported a pending event")
	}
	late := e.At(Time(5*time.Second), func() {})
	early := e.At(Time(time.Second), func() {})
	if at, ok := e.NextEventAt(); !ok || at != Time(time.Second) {
		t.Fatalf("NextEventAt = %v, %v; want 1s, true", at, ok)
	}
	// Cancelling the head must expose the next live event, not the corpse.
	early.Cancel()
	if at, ok := e.NextEventAt(); !ok || at != Time(5*time.Second) {
		t.Fatalf("after cancel: NextEventAt = %v, %v; want 5s, true", at, ok)
	}
	late.Cancel()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("engine with only cancelled events reported a pending event")
	}
	// Discarding cancelled heads must not disturb dispatch order.
	e.At(Time(2*time.Second), func() {})
	e.RunUntil(Time(3 * time.Second))
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("now = %v, want 3s", e.Now())
	}
}

// counted is a proc and its state in one object, started with Start.
type counted struct {
	Proc
	runs  int
	woken Time
}

func (c *counted) Run(p *Proc) {
	c.runs++
	p.Sleep(time.Second)
	c.woken = p.E.Now()
}

// TestStartRunsABodyInPlace: Start runs a Body in a Proc the caller owns,
// exactly as Spawn would run a function, and allocates nothing of its own;
// starting a live proc again panics.
func TestStartRunsABodyInPlace(t *testing.T) {
	e := NewEngine(1)
	c := &counted{}
	e.Start(&c.Proc, "counted", c)
	if c.Done() || e.LiveProcs() != 1 {
		t.Fatalf("a started proc is done (%v) or not live (%d live)", c.Done(), e.LiveProcs())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("starting a live proc again did not panic")
			}
		}()
		e.Start(&c.Proc, "again", c)
	}()
	e.Run()
	if c.runs != 1 || c.woken != Time(time.Second) || !c.Done() || e.LiveProcs() != 0 {
		t.Fatalf("runs %d, woken at %v, done %v, %d live", c.runs, c.woken, c.Done(), e.LiveProcs())
	}
	if allocs := testing.AllocsPerRun(20, func() {
		*c = counted{}
		e.Start(&c.Proc, "counted", c)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("Start + Run of an owned proc allocates %.0f objects, want 0", allocs)
	}
}

// TestTimerRearms: a timer fires once per arming, at the armed instant and
// in seq order with other events, can be re-armed from its own callback
// without allocating, and panics when armed twice.
func TestTimerRearms(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var tm *Timer
	n := 0
	tm = e.NewTimer(func() {
		fired = append(fired, e.Now())
		if n++; n < 3 {
			tm.After(time.Second)
		}
	})
	e.After(time.Second, func() { fired = append(fired, -1) }) // queued first: fires first
	tm.After(time.Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("arming an armed timer did not panic")
			}
		}()
		tm.After(time.Second)
	}()
	e.Run()
	want := []Time{-1, Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	quiet := e.NewTimer(func() {})
	if allocs := testing.AllocsPerRun(20, func() {
		quiet.After(time.Millisecond)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("arming and firing a timer allocates %.0f objects, want 0", allocs)
	}
}
