// Package sim provides a deterministic discrete-event simulation engine.
//
// Every evaluation run in this repository executes on a virtual clock owned
// by an Engine. The engine dispatches exactly one event at a time, so
// simulations are fully deterministic given a seed, regardless of host
// scheduling. Model code is written in one of two styles:
//
//   - event style: Engine.After / Engine.At schedule plain callbacks;
//   - process style: Engine.Spawn starts a coroutine-like Proc that may
//     block in virtual time (Sleep, Wait, Resource.Acquire) while other
//     events run.
//
// Procs are coroutines of the goroutine that steps the engine: a Proc runs
// only between Engine switching to it and the Proc parking again, so at most
// one of them executes at any instant, no locking is needed in model code
// and results are reproducible. The coroutines are pooled workers (see
// worker.go): a proc borrows one from its start event until its body
// returns.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is an instant on the virtual clock, measured as a duration since the
// start of the simulation (virtual time zero).
type Time time.Duration

// Duration converts the instant to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the instant as floating-point seconds since time zero.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. It may be cancelled before it fires.
type Event struct {
	at  Time
	seq uint64
	// Exactly one of fn and proc is set: a plain callback, or the proc the
	// event starts or resumes (the event is then the one embedded in that
	// Proc, so neither it nor a closure is allocated).
	fn       func()
	proc     *Proc
	canceled bool
	index    int // heap index, -1 once popped
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op.
func (ev *Event) Cancel() { ev.canceled = true }

// eventHeap is the pending-event queue: a binary min-heap ordered by
// (at, seq). seq is unique per scheduling, so the order is total and the
// pop sequence is fixed by the events alone, whatever the heap's shape.
// push and pop compare inline on the concrete type; container/heap would
// box every element through an interface and call Less and Swap
// dynamically, a tenth of a busy simulation's CPU.
type eventHeap []*Event

// before reports whether a fires ahead of b.
func (a *Event) before(b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev, sifting it up from the bottom.
func (h *eventHeap) push(ev *Event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		up := q[parent]
		if !ev.before(up) {
			break
		}
		q[i], up.index = up, i
		i = parent
	}
	q[i], ev.index = ev, i
	*h = q
}

// pop removes and returns the earliest event; the heap must not be empty.
// The last element takes the root's place and sifts down.
func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i], q[c].index = q[c], i
			i = c
		}
		q[i], last.index = last, i
	}
	top.index = -1
	*h = q
	return top
}

// Engine owns the virtual clock and the pending-event queue.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	running bool
	procs   int // live (started, unfinished) Procs, for leak detection
	// horizon is the instant the current Run/RunUntil may advance the clock
	// to: unbounded for Run, t for RunUntil(t). Sleep consults it before
	// moving the clock itself.
	horizon Time
}

// NewEngine returns an engine at virtual time zero whose random source is
// seeded with seed. All model randomness must come from Rand() so that runs
// are reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time t, which must not be in
// the past.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", t, e.now))
	}
	ev := &Event{fn: fn}
	e.schedule(ev, t)
	return ev
}

// schedule queues ev, which must not be queued already, to fire at t.
func (e *Engine) schedule(ev *Event, t Time) {
	e.seq++
	ev.at, ev.seq = t, e.seq
	e.events.push(ev)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+Time(d), fn)
}

// Timer is a callback queued again each time it is armed, on an event of
// its own: a loop that re-arms itself whenever it fires costs one Timer,
// not an event (and a method value) per At.
type Timer struct {
	e  *Engine
	ev Event
}

// NewTimer returns an unarmed timer on e that runs fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{e: e}
	t.ev.fn, t.ev.index = fn, -1
	return t
}

// After arms t to fire d after the current virtual time. An armed timer
// (queued, not yet fired) must not be armed again.
func (t *Timer) After(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if t.Armed() {
		panic("sim: timer armed twice")
	}
	t.e.schedule(&t.ev, t.e.now+Time(d))
}

// Armed reports whether t is queued: armed and not yet fired.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }

// step pops and runs the next event. It reports false when no events remain.
func (e *Engine) step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		if ev.proc != nil {
			ev.proc.dispatch()
		} else {
			ev.fn()
		}
		return true
	}
	return false
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.horizon = math.MaxInt64
	for e.step() {
	}
}

// RunUntil dispatches events until the clock would pass t, then sets the
// clock to t. Events scheduled exactly at t do fire.
func (e *Engine) RunUntil(t Time) {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.horizon = t
	for {
		// Peek past cancelled heads: step skips them, and would otherwise
		// run the live event behind one even when that event lies beyond t.
		if next, ok := e.NextEventAt(); !ok || next > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// NextEventAt returns the virtual time of the earliest live (non-cancelled)
// pending event. It reports false when no live events remain. Cancelled
// events at the head of the queue are discarded as a side effect, so a
// pacing driver that sleeps until the returned instant never wakes for an
// event that will not fire.
func (e *Engine) NextEventAt() (Time, bool) {
	for len(e.events) > 0 {
		if e.events[0].canceled {
			e.events.pop()
			continue
		}
		return e.events[0].at, true
	}
	return 0, false
}

// LiveProcs reports how many spawned Procs have started but not finished.
// A nonzero value after Run returns usually indicates a deadlocked model.
func (e *Engine) LiveProcs() int { return e.procs }

// Proc is a simulated process: a coroutine that can block in virtual time.
// All Proc methods must be called from the Proc's own coroutine (that is,
// from within the body passed to Spawn or Start, or functions it calls).
type Proc struct {
	E    *Engine
	Name string
	// body is what the proc runs; nil once it has returned, which is what
	// marks the proc done (and lets go of whatever the body holds).
	body Body
	// w is the pooled coroutine running body: nil until the start event
	// fires and again once body has returned.
	w *worker
	// ev is the one event the proc needs at a time: its start event, then
	// the wake-up of each park (a Sleep's, a fired Signal's, a Resource
	// admitting it). Nobody else holds a pointer to it, so it cannot be
	// cancelled, and a parked proc waits for exactly one thing, so it is
	// never queued twice.
	ev Event
}

// Body is what a proc runs. Spawn takes a plain function; Start takes any
// Body, so a caller can keep a proc, its state and its body in one object.
type Body interface {
	Run(p *Proc)
}

// bodyFunc is Spawn's plain function as a Body.
type bodyFunc func(*Proc)

func (f bodyFunc) Run(p *Proc) { f(p) }

// Spawn starts fn as a simulated process at the current virtual time.
// fn begins executing when the engine dispatches its start event.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := new(Proc)
	e.Start(p, name, bodyFunc(fn))
	return p
}

// Start is Spawn into a Proc the caller owns (typically embedded in the
// object that is also body), which must not be live: a proc and its state
// then cost one allocation between them.
func (e *Engine) Start(p *Proc, name string, body Body) {
	if p.body != nil {
		panic(fmt.Sprintf("sim: Start of live proc %q", p.Name))
	}
	*p = Proc{E: e, Name: name, body: body}
	p.ev.proc = p
	e.procs++
	e.schedule(&p.ev, e.now)
}

// dispatch switches to the proc's coroutine and returns when the proc parks
// or finishes. It is the only place model code runs. The first dispatch,
// from the start event, takes a worker from the pool; the one after which
// the proc is done gives it back.
func (p *Proc) dispatch() {
	if p.Done() {
		// The worker has moved on to another proc: resuming it here would
		// wake that one.
		panic(fmt.Sprintf("sim: dispatch of finished proc %q", p.Name))
	}
	w := p.w
	if w == nil {
		w = takeWorker()
		w.p, p.w = p, w
	}
	w.next()
	if p.Done() {
		w.retire()
	}
}

// park suspends the calling proc, returning control to the engine, until
// some event calls dispatch again.
func (p *Proc) park() {
	p.w.yield(struct{}{})
}

// finish marks the proc done and detaches it from its worker. It runs on
// the worker's coroutine, before control returns to the engine.
func (p *Proc) finish() {
	p.body = nil
	p.w = nil
	p.E.procs--
}

// Sleep blocks the proc for d of virtual time.
//
// When the proc's own wake-up would be the very next event the engine pops
// — nothing live is queued at or before now+d, and the current Run/RunUntil
// is allowed to reach that instant — Sleep advances the clock itself and
// returns: same resume instant and same order relative to every other
// event, without a heap push or the two coroutine switches of a
// park/dispatch pair. An event queued exactly at now+d was scheduled
// earlier, would carry a lower seq than the wake-up and so must fire
// first: the comparison is strict. Otherwise the proc parks.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.Name, d))
	}
	e := p.E
	wake := e.now + Time(d)
	if wake <= e.horizon {
		if next, ok := e.NextEventAt(); !ok || next > wake {
			e.now = wake
			return
		}
	}
	e.schedule(&p.ev, wake)
	p.park()
}

// Done reports whether the proc's body has returned.
func (p *Proc) Done() bool { return p.body == nil }

// Wait blocks the proc until the signal fires. If the signal has already
// fired, Wait returns immediately.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.register(sigWaiter{p: p})
	p.park()
}

// Signal is a one-shot broadcast condition: procs and callbacks can wait on
// it, and Fire releases all of them. Signals are the engine's analog of a
// closed channel.
type Signal struct {
	e       *Engine
	fired   bool
	waiters []sigWaiter // in registration order
	// one backs waiters until a second registration: most signals release
	// one proc, and that wait then allocates nothing.
	one [1]sigWaiter
}

// sigWaiter is one of the two things a Signal releases: a proc parked in
// Wait, woken through its own event, or an OnFire callback.
type sigWaiter struct {
	p  *Proc
	fn func()
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Init makes s an unfired signal bound to e: a signal embedded by value in
// a longer-lived struct costs no allocation of its own. A signal must not
// be copied once initialized.
func (s *Signal) Init(e *Engine) { *s = Signal{e: e} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all current waiters (as events at the current time) and
// makes future Wait/OnFire calls return/run immediately. Firing twice
// panics: one-shot semantics keep model bugs visible.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: Signal fired twice")
	}
	s.fired = true
	for _, w := range s.waiters {
		if w.p != nil {
			s.e.schedule(&w.p.ev, s.e.now)
		} else {
			s.e.After(0, w.fn)
		}
	}
	s.waiters, s.one[0] = nil, sigWaiter{}
}

// OnFire registers fn to run when the signal fires (immediately, as a
// zero-delay event, if it already fired).
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		s.e.After(0, fn)
		return
	}
	s.register(sigWaiter{fn: fn})
}

func (s *Signal) register(w sigWaiter) {
	if s.waiters == nil {
		s.waiters = s.one[:0]
	}
	s.waiters = append(s.waiters, w)
}
