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
// The injector itself drains all work that is already due — so a request
// whose engine-side cost is zero virtual time (e.g. a warehouse-hit
// dispatch) completes synchronously on the caller's goroutine with no
// timer involved at all — and then wakes the loop only if the loop's plan
// has gone stale: the engine's next event is now earlier than the instant
// the loop is sleeping toward. Otherwise the loop's own wake-up comes
// first, and it re-plans then. When the engine is idle and nothing is
// being injected, the driver holds no timer and performs no wakeups: idle
// CPU is zero.
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
	"math"
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

	// plan is the virtual instant the loop last planned to wake at, +∞ once
	// it found the engine idle (zero before its first pass, which plans
	// anyway); guarded by mu. A Do kicks the loop only when it leaves an
	// event earlier than this.
	plan     sim.Time
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

// nextLocked is the engine's next event time, +∞ when it has none. Callers
// must hold d.mu.
func (d *Driver) nextLocked() sim.Time {
	if next, ok := d.e.NextEventAt(); ok {
		return next
	}
	return math.MaxInt64
}

// loop is the event-driven pacer: advance, peek the next event, sleep
// until exactly its wall deadline (or until an inject re-plans it).
func (d *Driver) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		d.advanceLocked()
		d.plan = d.nextLocked()
		next := d.plan
		d.mu.Unlock()

		var timerC <-chan time.Time // nil (blocks forever) while idle
		var cancel func()
		if next != math.MaxInt64 {
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
// gained an earlier event. The channel has capacity 1; a pending kick
// already covers us.
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

// completion is one Do call: the proc it runs in, the body that proc runs
// (the completion itself) and the channel its end is signalled on with a
// buffered send, received once and then empty again. Pooled, a Do
// allocates nothing: the proc is started again in place.
type completion struct {
	sim.Proc
	fn func(p *sim.Proc)
	ch chan struct{}
}

func (c *completion) Run(p *sim.Proc) {
	defer func() { c.ch <- struct{}{} }()
	c.fn(p)
}

var completions = sync.Pool{New: func() any {
	return &completion{ch: make(chan struct{}, 1)}
}}

// Do runs fn as a simulated process and waits for it to complete. The
// process runs under the driver's pacing, so its virtual-time costs (boots,
// transfers, compute) take real time; work that is due immediately —
// including fn itself and everything it does in zero virtual time — is
// drained synchronously on the calling goroutine. The critical section
// covers exactly the engine interaction, and the proc, its body and its
// completion channel are one pooled object. The proc finishes under the
// driver's mutex before any later Do can take the object from the pool and
// start it again. The loop is woken only when the drain left an event
// earlier than the one it is sleeping toward.
func (d *Driver) Do(name string, fn func(p *sim.Proc)) {
	c := completions.Get().(*completion)
	c.fn = fn
	d.mu.Lock()
	d.e.Start(&c.Proc, name, c)
	d.advanceLocked()
	stale := d.nextLocked() < d.plan
	d.mu.Unlock()
	if stale {
		d.kick()
	}
	<-c.ch
	c.fn = nil
	completions.Put(c)
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
