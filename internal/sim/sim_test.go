package sim

import (
	"reflect"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("final time = %v, want 3s", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	e.After(500*time.Millisecond, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(2*time.Second, func() { fired = append(fired, 2) })
	e.After(5*time.Second, func() { fired = append(fired, 5) })
	e.RunUntil(Time(3 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 1s and 2s", fired)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Second)
		p.Sleep(2 * time.Second)
		wake = e.Now()
	})
	e.Run()
	if wake != Time(3*time.Second) {
		t.Fatalf("woke at %v, want 3s", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d after Run", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * time.Second)
		order = append(order, "a1")
		p.Sleep(2 * time.Second)
		order = append(order, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		order = append(order, "b2")
	})
	e.Run()
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignal(t *testing.T) {
	e := NewEngine(1)
	sig := NewSignal(e)
	var woke []string
	e.Spawn("waiter1", func(p *Proc) {
		p.Wait(sig)
		woke = append(woke, "w1@"+e.Now().String())
	})
	e.Spawn("waiter2", func(p *Proc) {
		p.Wait(sig)
		woke = append(woke, "w2@"+e.Now().String())
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		sig.Fire()
	})
	e.Run()
	if len(woke) != 2 {
		t.Fatalf("woke = %v, want both waiters", woke)
	}
	if !sig.Fired() || sig.FiredAt() != Time(5*time.Second) {
		t.Fatalf("FiredAt = %v, want 5s", sig.FiredAt())
	}
	// Waiting on an already-fired signal returns immediately.
	late := false
	e2 := NewEngine(1)
	s2 := NewSignal(e2)
	e2.Spawn("x", func(p *Proc) {
		s2.Fire()
		p.Wait(s2)
		late = true
	})
	e2.Run()
	if !late {
		t.Fatal("Wait on fired signal did not return")
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	e.Spawn("x", func(p *Proc) {
		s.Fire()
		defer func() {
			if recover() == nil {
				t.Error("double Fire did not panic")
			}
		}()
		s.Fire()
	})
	e.Run()
}

// Fire releases procs and callbacks in the order they registered, whatever
// the mix, and after events already queued for the same instant.
func TestSignalFiresInRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var order []string
	note := func(who string) func() { return func() { order = append(order, who) } }
	waiter := func(name string) {
		e.Spawn(name, func(p *Proc) {
			p.Wait(s)
			note(name)()
		})
	}
	// Registration happens when each proc's start event runs, so callbacks
	// registered from events land between them.
	s.OnFire(note("cb0"))
	waiter("p1")
	e.After(0, func() { s.OnFire(note("cb2")) })
	waiter("p3")
	waiter("p4")
	e.After(0, func() { s.OnFire(note("cb5")) })
	e.After(time.Second, func() {
		e.After(0, note("queued-before-fire"))
		s.Fire()
		e.After(0, note("queued-after-fire"))
	})
	e.Run()
	want := []string{"queued-before-fire", "cb0", "p1", "cb2", "p3", "p4", "cb5", "queued-after-fire"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d waiters never resumed", e.LiveProcs())
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cores", 2)
	var order []string
	work := func(name string, hold time.Duration) {
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	work("a", 3*time.Second)
	work("b", 1*time.Second)
	work("c", 1*time.Second) // must wait for a or b
	e.Run()
	// a and b start immediately; c starts when b releases at t=1s.
	want := []string{"a+", "b+", "b-", "c+", "c-", "a-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceNoBarging(t *testing.T) {
	// A waiting 2-unit request must not be overtaken by later 1-unit ones.
	e := NewEngine(1)
	r := NewResource(e, "r", 2)
	var got []string
	e.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(2 * time.Second)
		r.Release(1)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 2) // needs both units; waits for hog
		got = append(got, "big")
		r.Release(2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p, 1) // arrives later; must queue behind big
		got = append(got, "small")
		r.Release(1)
	})
	e.Run()
	if len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Fatalf("got = %v, want [big small]", got)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	e.Spawn("x", func(p *Proc) {
		if !r.TryAcquire(1) {
			t.Error("TryAcquire on free resource failed")
		}
		if r.TryAcquire(1) {
			t.Error("TryAcquire on full resource succeeded")
		}
		r.Release(1)
		if !r.TryAcquire(1) {
			t.Error("TryAcquire after release failed")
		}
		r.Release(1)
	})
	e.Run()
}

func TestResourceOnChange(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 4)
	var seen []int
	r.OnChange(func(n int) { seen = append(seen, n) })
	e.Spawn("x", func(p *Proc) {
		r.Acquire(p, 2)
		r.Acquire(p, 1)
		r.Release(3)
	})
	e.Run()
	want := []int{2, 3, 0}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
}

func TestStepSeriesIntegralAndBuckets(t *testing.T) {
	e := NewEngine(1)
	s := NewStepSeries(e)
	e.After(1*time.Second, func() { s.Set(10) })
	e.After(3*time.Second, func() { s.Set(0) })
	e.After(4*time.Second, func() {})
	e.Run()
	if got := s.Integral(0, Time(4*time.Second)); got != 20 {
		t.Fatalf("integral = %v, want 20", got)
	}
	b := s.Buckets(0, Time(4*time.Second), time.Second)
	want := []float64{0, 10, 10, 0}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	if m := s.Mean(0, Time(4*time.Second)); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
}

func TestCountSeries(t *testing.T) {
	e := NewEngine(1)
	c := NewCountSeries(e)
	e.After(500*time.Millisecond, func() { c.Add(100) })
	e.After(1500*time.Millisecond, func() { c.Add(50) })
	e.After(1600*time.Millisecond, func() { c.Add(50) })
	e.Run()
	b := c.Buckets(0, Time(2*time.Second), time.Second)
	if b[0] != 100 || b[1] != 100 {
		t.Fatalf("buckets = %v, want [100 100]", b)
	}
	if tot := c.Total(0, Time(2*time.Second)); tot != 200 {
		t.Fatalf("total = %v, want 200", tot)
	}
}

func TestCountSeriesAddSpread(t *testing.T) {
	e := NewEngine(1)
	c := NewCountSeries(e)
	e.Spawn("x", func(p *Proc) {
		c.AddSpread(300, 3*time.Second)
	})
	e.Run()
	b := c.Buckets(0, Time(3*time.Second), time.Second)
	for i, v := range b {
		if v < 99 || v > 101 {
			t.Fatalf("bucket %d = %v, want ~100 (buckets %v)", i, v, b)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		r := NewResource(e, "r", 3)
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
				p.Sleep(d)
				r.Acquire(p, 1)
				p.Sleep(time.Duration(e.Rand().Intn(500)) * time.Millisecond)
				r.Release(1)
				log = append(log, name+e.Now().String())
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
