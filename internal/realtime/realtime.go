// Package realtime runs the Rattrap platform against the wall clock: a
// Driver paces the discrete-event engine so one virtual second takes one
// real second, and a Server speaks the offload wire protocol over real TCP
// connections. The exact same core.Platform code serves both the
// evaluation harness (pure virtual time) and this path — the Clock/
// Transport split promised in DESIGN.md.
//
// # Pacing architecture
//
// The driver is event-driven, not tick-driven. Its loop asks the engine
// for the next pending event (sim.Engine.NextEventAt), converts that
// virtual instant into a wall deadline, and sleeps on a timer armed for
// exactly that deadline (a deadline nearer than a sleep can resolve is
// not slept towards: the loop yields and looks again, see yieldBelow).
// Injecting work wakes the loop immediately, and
// the injector itself drains all work that is already due — so a request
// whose engine-side cost is zero virtual time (e.g. a warehouse-hit
// dispatch) completes synchronously on the caller's goroutine with no
// timer involved at all. When the engine is idle and nothing is being
// injected, the driver holds no timer and performs no wakeups: idle CPU
// is zero.
//
// # Engine ownership
//
// The Driver owns its engine. After Start, every interaction with the
// engine (and with anything living on it: the platform, sessions,
// signals) must happen either inside the driver's loop or inside a
// function passed to Do — all of which run with the driver's mutex held.
// Calling Driver methods (Do, Now, Stop) from *inside* an injected function
// deadlocks by construction; injected code must use the sim.Proc it is
// handed instead.
package realtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rattrap/internal/sim"
)

// clock abstracts the wall clock so driver tests can run on a fake one.
type clock interface {
	Now() time.Time
	// Timer returns a channel that delivers once after d, plus a cancel
	// function releasing the timer early.
	Timer(d time.Duration) (<-chan time.Time, func())
}

// syncSleepMax is the longest wait realClock serves with a blocking
// nanosleep on the caller's goroutine instead of a Go timer. Go's timer
// machinery wakes through the netpoller, whose granularity on shared
// vCPUs overshoots sub-millisecond deadlines by 0.2–1 ms — more than the
// deadline itself for the gaps the pacer plans between pipelined
// completions. A raw nanosleep rides the kernel's hrtimers and comes
// back in tens of microseconds. Past this threshold the relative error
// of the timer path is small and the loop stays interruptible.
const syncSleepMax = 2 * time.Millisecond

// yieldBelow is the longest wait the loop does not sleep at all. The kernel
// rounds a nanosleep up by its timer slack (~50 µs): asked for 300 ns it
// comes back after 55 µs. Waits that short are what the hops inside a boot
// come to at speed 1e6, and a proc switch (~100 ns) no longer outlasts them
// the way a channel hand-off (~1 µs) did: on the benchmark's tcp-cold,
// sleeping through them took req_per_s from 17.1 k to 12–15 k with the
// process 18 % idle. So the loop yields the P and plans again, until the
// event is due or far enough away to sleep towards.
const yieldBelow = 50 * time.Microsecond

// realClock reuses one timer across rounds — the pacer plans a sleep per
// event, and a fresh time.Timer each round puts two heap objects on the
// steady-state request path. Reuse makes Timer single-owner: only the
// driver loop may call it, and never with a previous round's timer still
// armed (the loop always receives or cancels before re-planning). A tick
// that races cancel can leave a stale value in the channel; the drains
// below sweep it, and at worst the loop wakes early once and re-plans,
// which is harmless by design.
//
// The loop never brings a wait of yieldBelow or less here (it yields
// through those), so a wait is served in one of three ways: yield < timer
// slack ≤ nanosleep ≤ syncSleepMax < Go timer.
//
// Short waits (≤ syncSleepMax) are served synchronously: Timer blocks in
// a raw nanosleep right here, on the loop's goroutine, then returns a
// channel that already holds the tick. The loop was about to park on
// that channel anyway, so blocking it early costs nothing; what it buys
// is the kernel's hrtimer precision instead of the netpoller's. The
// trade is interruptibility — a stop or wake arriving mid-sleep waits it
// out — which syncSleepMax bounds below the overshoot the netpoller path
// imposed on every short wake regardless. The idle case is untouched: no
// pending event, no Timer call, zero CPU.
type realClock struct {
	t *time.Timer
	// tick carries the pre-fired tick of a synchronous sleep; capacity 1,
	// swept by cancel, so at most one stale value can exist and the loop
	// shrugs off a spurious wake by re-planning.
	tick chan time.Time
}

func (c *realClock) Now() time.Time { return time.Now() }

func (c *realClock) Timer(d time.Duration) (<-chan time.Time, func()) {
	if d <= syncSleepMax {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
		if c.tick == nil {
			c.tick = make(chan time.Time, 1)
		}
		select {
		case c.tick <- time.Now():
		default:
		}
		return c.tick, func() {
			select {
			case <-c.tick:
			default:
			}
		}
	}
	if c.t == nil {
		c.t = time.NewTimer(d)
	} else {
		if !c.t.Stop() {
			select {
			case <-c.t.C:
			default:
			}
		}
		c.t.Reset(d)
	}
	return c.t.C, func() {
		if !c.t.Stop() {
			select {
			case <-c.t.C:
			default:
			}
		}
	}
}

// Driver advances an engine in step with the wall clock. All interaction
// with the engine (and anything living on it) must go through Do; see the
// package comment for the ownership invariant.
type Driver struct {
	mu      sync.Mutex
	e       *sim.Engine
	started time.Time
	clk     clock
	// Speed scales virtual time: 2.0 runs the platform at twice real time
	// (useful for demos that would otherwise wait out a 30 s VM boot).
	speed float64

	wake     chan struct{} // capacity 1: kicks the loop to re-plan its sleep
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// timerWakeups counts loop iterations caused by a timer firing —
	// the observable for "no wakeups while idle".
	timerWakeups atomic.Int64
}

// NewDriver wraps e with the event-driven pacing loop. speed <= 0
// defaults to 1 (real time).
func NewDriver(e *sim.Engine, speed float64) *Driver {
	if speed <= 0 {
		speed = 1
	}
	return &Driver{
		e:     e,
		speed: speed,
		clk:   &realClock{},
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start begins pacing. The engine's virtual time zero is "now".
func (d *Driver) Start() {
	d.started = d.clk.Now()
	go d.loop()
}

// wallTarget converts the current wall clock into the virtual instant the
// engine should have reached. Callers must hold d.mu.
func (d *Driver) wallTarget() sim.Time {
	return sim.Time(float64(d.clk.Now().Sub(d.started)) * d.speed)
}

// wallDeadline converts a virtual instant into the wall-clock moment it
// is due. Callers must hold d.mu.
func (d *Driver) wallDeadline(t sim.Time) time.Time {
	return d.started.Add(time.Duration(float64(t) / d.speed))
}

// advanceLocked runs the engine up to the current wall target, draining
// every event that is already due. Callers must hold d.mu.
func (d *Driver) advanceLocked() {
	target := d.wallTarget()
	if target < d.e.Now() {
		target = d.e.Now()
	}
	d.e.RunUntil(target)
}

// loop is the event-driven pacer: advance, peek the next event, sleep
// until exactly its wall deadline (or until an inject re-plans it).
func (d *Driver) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		d.advanceLocked()
		next, ok := d.e.NextEventAt()
		d.mu.Unlock()

		var timerC <-chan time.Time // nil (blocks forever) while idle
		var cancel func()
		if ok {
			// started/speed/clk are immutable after Start, so the deadline
			// math needs no lock.
			wait := d.wallDeadline(next).Sub(d.clk.Now())
			if wait <= 0 {
				// Already due: advance again without sleeping.
				continue
			}
			if wait <= yieldBelow {
				// Closer than a sleep can resolve: let whoever else wants
				// the P run, then plan again.
				select {
				case <-d.stop:
					return
				default:
				}
				runtime.Gosched()
				continue
			}
			timerC, cancel = d.clk.Timer(wait)
		}
		select {
		case <-d.stop:
			if cancel != nil {
				cancel()
			}
			return
		case <-d.wake:
			if cancel != nil {
				cancel()
			}
		case <-timerC:
			d.timerWakeups.Add(1)
		}
	}
}

// kick wakes the loop so it re-plans its sleep after the event queue
// changed. The channel has capacity 1; a pending kick already covers us.
func (d *Driver) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Stop halts pacing and waits for the loop to exit. Stop is idempotent.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// TimerWakeups reports how many times the pacing loop woke because a
// timer fired. An idle driver holds at zero.
func (d *Driver) TimerWakeups() int64 { return d.timerWakeups.Load() }

// donePool recycles completion channels across Do calls. A channel is
// signalled with a buffered send (not a close), received exactly once,
// and is then empty again — safe to reuse.
var donePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// Do runs fn as a simulated process and waits for it to complete. The
// process runs under the driver's pacing, so its virtual-time costs (boots,
// transfers, compute) take real time; work that is due immediately —
// including fn itself and everything it does in zero virtual time — is
// drained synchronously on the calling goroutine. The critical section
// covers exactly the engine interaction (closure setup stays outside it),
// and the completion channel comes from a pool, not a per-call make.
func (d *Driver) Do(name string, fn func(p *sim.Proc)) {
	ch := donePool.Get().(chan struct{})
	run := func(p *sim.Proc) {
		defer func() { ch <- struct{}{} }()
		fn(p)
	}
	d.mu.Lock()
	d.e.Spawn(name, run)
	d.advanceLocked()
	d.mu.Unlock()
	// The spawned proc may have scheduled future events; make the loop
	// re-plan its sleep around them.
	d.kick()
	<-ch
	donePool.Put(ch)
}

// Now returns the engine's current virtual time, advancing the engine to
// the present wall target first so the reading tracks the wall clock even
// while the loop sleeps toward a distant event. Like Do, it must not be
// called from inside an injected function.
func (d *Driver) Now() sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advanceLocked()
	return d.e.Now()
}
