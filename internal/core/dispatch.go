package core

import (
	"errors"
	"time"

	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
)

// This file holds the Dispatcher's allocation machinery. The policy is
// unchanged from the paper (§IV-B): warehouse-affinity first, then any
// idle runtime, then boot up to MaxRuntimes, then FIFO queueing. The
// *selection* half (which idle runtime serves which app) lives behind the
// Scheduler interface (scheduler.go); this file keeps the capacity half:
//
//   - pl.waitQ is a ring buffer, FIFO without the O(n) re-slicing;
//   - pl.slots is an intrusive doubly-linked list in boot order plus a
//     CID map, making removeSlot and StopRuntime lookups O(1);
//   - bounded admission and the hold-time EWMA feeding retry-after hints.
//
// Virtual-time behaviour is bit-identical to the original scanning
// dispatcher: both pick the minimum-boot-order eligible slot, and the
// experiment harness is the oracle for that.

// slotList is the platform's runtime pool in boot order. It also keeps the
// pool size's integral over virtual time (area, in runtime-nanoseconds up
// to since) and its peak, updated where n changes, so a time-weighted mean
// pool size costs three words and no sampler.
type slotList struct {
	head, tail *slot
	n          int
	area       int64
	since      sim.Time
	peak       int
}

// advance closes the integral at now.
func (l *slotList) advance(now sim.Time) {
	l.area += int64(l.n) * int64(now-l.since)
	l.since = now
}

func (l *slotList) pushBack(sl *slot, now sim.Time) {
	l.advance(now)
	sl.prev, sl.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = sl
	} else {
		l.head = sl
	}
	l.tail = sl
	l.n++
	l.peak = max(l.peak, l.n)
}

func (l *slotList) remove(sl *slot, now sim.Time) {
	l.advance(now)
	if sl.prev != nil {
		sl.prev.next = sl.next
	} else {
		l.head = sl.next
	}
	if sl.next != nil {
		sl.next.prev = sl.prev
	} else {
		l.tail = sl.prev
	}
	sl.prev, sl.next = nil, nil
	l.n--
}

// each visits every slot in boot order. The callback must not mutate the
// list; callers that stop runtimes snapshot the IDs first.
func (l *slotList) each(fn func(*slot)) {
	for sl := l.head; sl != nil; sl = sl.next {
		fn(sl)
	}
}

// slotHeap is a min-heap of slots keyed by boot sequence.
type slotHeap []*slot

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(*slot)) }
func (h *slotHeap) Pop() any {
	old := *h
	n := len(old)
	sl := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return sl
}

// waiterRing is the Dispatcher's FIFO request queue as a growable ring
// buffer: push and pop are O(1) with no per-operation allocation.
type waiterRing struct {
	buf  []*waiter
	head int
	n    int
}

func (r *waiterRing) push(w *waiter) {
	if r.n == len(r.buf) {
		grown := make([]*waiter, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = w
	r.n++
}

func (r *waiterRing) pop() *waiter {
	if r.n == 0 {
		return nil
	}
	w := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return w
}

func (r *waiterRing) len() int { return r.n }

// ErrAborted reports that a request's abort signal fired before the
// dispatcher could (usefully) serve it.
var ErrAborted = errors.New("core: request aborted while queued")

// errQueueClosed turns away a request RejectQueued left no queue to wait in.
var errQueueClosed = errors.New("core: dispatcher queue rejected (pool retired)")

// acquireSlot implements the Dispatcher's allocation policy up to the
// wait ring: it returns a slot, an error, or queue set when the request
// must wait for a release (waitSlot). sp, when non-nil, receives the boot
// sub-stage duration of this allocation (virtual time). abort, when
// non-nil, is the request's cancellation signal.
func (pl *Platform) acquireSlot(p *sim.Proc, aid string, sp *obs.Span, abort *sim.Signal) (_ *slot, queue bool, _ error) {
	if abort != nil && abort.Fired() {
		return nil, false, ErrAborted
	}
	// 1.–2. Idle runtime, best one first: the Scheduler prefers a runtime
	//    that already loaded this code (cache-table CID affinity: "saves
	//    the time for loading codes"), then any idle runtime.
	if sl, affinity := pl.sched.Pick(aid); sl != nil {
		pl.claim(sl)
		if affinity && pl.om != nil {
			pl.om.affinityHits.Inc()
		}
		return sl, false, nil
	}
	// 3. Grow the pool — up to the static MaxRuntimes, or up to the
	//    autoscaler's elastic boot ceiling when the control loop runs.
	if pl.slots.n < pl.poolCap() {
		var start sim.Time = -1
		if sp != nil {
			start = pl.E.Now()
		}
		sl, err := pl.bootSlot(p)
		if sp != nil && err == nil {
			d := (pl.E.Now() - start).Duration()
			sp.Add(obs.StageBoot, d)
			if sl.viaTemplate {
				sp.Add(obs.StageTemplateClone, d) // sub-stage view of the boot
			}
		}
		return sl, false, err
	}
	// 4. Bounded admission (ServingConfig): with the wait ring at twice
	//    the pool's ceiling, reject with a typed overload error and a
	//    retry-after hint rather than queueing unboundedly — a flood of
	//    flaky clients must not pin unbounded memory on the cloud side.
	if pl.cfg.serving && pl.waitQ.len() >= 2*pl.cfg.MaxRuntimes {
		if pl.om != nil {
			pl.om.overloadRejects.Inc()
		}
		return nil, false, &offload.OverloadedError{QueueDepth: pl.waitQ.len(), RetryAfter: pl.retryAfterHint()}
	}
	// 5. Queue FIFO for the next release.
	if pl.queueClosed {
		return nil, false, errQueueClosed
	}
	return nil, true, nil
}

// waitSlot parks a request acquireSlot could not serve in the wait ring,
// on w, until a release hands it a slot. sp, when non-nil, receives the
// queue-wait sub-stage. If abort fires while the request is parked, the
// wait ends with ErrAborted instead of occupying a queue seat (and
// eventually a slot) for a caller that is gone.
func (pl *Platform) waitSlot(p *sim.Proc, w *waiter, sp *obs.Span, abort *sim.Signal) (*slot, error) {
	w.sig.Init(pl.E)
	if abort != nil {
		// The callback stays registered on the abort signal for its
		// lifetime (a few dozen bytes per queued request on the slow
		// path); it goes inert once the waiter takes its slot.
		abort.OnFire(func() {
			if w.taken || w.aborted {
				return
			}
			w.aborted = true
			if !w.sig.Fired() {
				w.sig.Fire()
			}
		})
	}
	pl.waitQ.push(w)
	pl.kickScaler() // queue pressure is the autoscaler's grow signal
	var start sim.Time = -1
	if sp != nil || pl.om != nil {
		start = pl.E.Now()
	}
	if pl.om != nil {
		pl.om.queued.Inc()
		pl.om.queueLen.Set(int64(pl.waitQ.len()))
	}
	p.Wait(&w.sig)
	if start >= 0 {
		d := (pl.E.Now() - start).Duration()
		sp.Add(obs.StageQueueWait, d)
		if pl.om != nil {
			pl.om.queueWait.Observe(d)
		}
	}
	if w.aborted {
		if w.sl != nil {
			// A release handed this waiter the slot in the same instant
			// the abort fired (release popped the still-live waiter, then
			// the abort event ran before the waiter's resume event). Put
			// the slot back rather than strand it LifecycleActive.
			pl.releaseSlot(w.sl)
		}
		return nil, ErrAborted
	}
	if w.sl == nil {
		if w.err != nil {
			return nil, w.err
		}
		return nil, errQueueClosed
	}
	w.taken = true
	return w.sl, nil
}

// claim marks an idle slot active and stamps the hold start.
func (pl *Platform) claim(sl *slot) {
	pl.db.Transition(sl.id, LifecycleActive)
	sl.acquiredAt = pl.E.Now()
}

// noteHold folds one completed claim into the hold-time EWMA (weight 1/4:
// responsive to load shifts, stable against single outliers).
func (pl *Platform) noteHold(d time.Duration) {
	if d <= 0 {
		return
	}
	if pl.holdEWMA == 0 {
		pl.holdEWMA = d
		return
	}
	pl.holdEWMA += (d - pl.holdEWMA) / 4
}

// retryAfterHint estimates how long an overload-rejected client should
// back off: the queue ahead of it, drained at one slot-hold per runtime.
// The drain rate comes from the schedulable census (idle + active), not
// cfg.MaxRuntimes: whenever the live pool is smaller — cold start, boots
// still in flight, post-shrink, cordoned runtimes — dividing by the cap
// overstated the drain rate and clients retried too early, re-tripping
// admission.
func (pl *Platform) retryAfterHint() time.Duration {
	ewma := pl.holdEWMA
	if ewma <= 0 {
		ewma = 250 * time.Millisecond // no completed holds yet; nominal guess
	}
	runtimes := pl.db.StateCount(LifecycleIdle) + pl.db.StateCount(LifecycleActive)
	if runtimes < 1 {
		runtimes = 1
	}
	hint := ewma * time.Duration(pl.waitQ.len()+1) / time.Duration(runtimes)
	if hint < 10*time.Millisecond {
		hint = 10 * time.Millisecond
	}
	return hint
}

// popLiveWaiter pops the oldest waiter whose request has not aborted.
// Aborted waiters' signals already fired (the abort did it); dropping
// them here is how they leave the ring.
func (pl *Platform) popLiveWaiter() *waiter {
	for {
		w := pl.waitQ.pop()
		if w == nil {
			return nil
		}
		if w.aborted {
			if pl.om != nil {
				pl.om.queueLen.Set(int64(pl.waitQ.len()))
			}
			continue
		}
		return w
	}
}

// RejectQueued wakes every request parked in the wait ring without a slot
// and closes the ring to later ones (a request still in Prepare's access
// analysis): each one's Prepare returns an error instead of waiting for a
// release that will never come. A fixed pool whose runtimes have all been
// cordoned (a retired cluster shard) hands slots to nobody and boots no
// replacements, so without this its queue would wait forever.
func (pl *Platform) RejectQueued() {
	pl.queueClosed = true
	pl.wakeQueued(nil)
}

// wakeQueued wakes every request parked in the wait ring without a slot:
// each one's Prepare returns err, or errQueueClosed when err is nil.
func (pl *Platform) wakeQueued(err error) {
	for w := pl.popLiveWaiter(); w != nil; w = pl.popLiveWaiter() {
		w.err = err
		w.sig.Fire() // w.sl stays nil: waitSlot reports the error
	}
	if pl.om != nil {
		pl.om.queueLen.Set(int64(pl.waitQ.len()))
	}
}

func (pl *Platform) releaseSlot(sl *slot) {
	sl.info.LastUsed = pl.E.Now()
	pl.noteHold((pl.E.Now() - sl.acquiredAt).Duration())
	pl.place(sl, !sl.cordoned)
}

// place puts a runtime that has just come free, released by a request or
// fresh from a boot, where it serves next: with serve, the oldest live
// waiter takes it, still LifecycleActive; otherwise it parks idle, to drain
// if cordoned, else for the scheduler, and its idle reclamation starts. A
// cordoned runtime released by a request takes no further work (serve
// false); one cordoned while booting still serves the request it booted
// for. place records no hold time: a boot is not a request hold and must
// not inflate the retry-after EWMA.
func (pl *Platform) place(sl *slot, serve bool) {
	var w *waiter
	if serve {
		w = pl.popLiveWaiter()
	}
	if w != nil {
		w.sl = sl
		sl.acquiredAt = pl.E.Now()
		if pl.om != nil {
			pl.om.queueLen.Set(int64(pl.waitQ.len()))
		}
		w.sig.Fire()
		return
	}
	pl.db.Transition(sl.id, LifecycleIdle)
	if sl.cordoned {
		pl.armStop(sl, false)
		pl.kickScaler() // replacement capacity may be needed
		return
	}
	pl.sched.Offer(sl)
	// Idle reclamation: the autoscaler owns it when running (hysteretic
	// shrink toward MinRuntimes); otherwise the per-slot reap.
	if pl.scaler != nil {
		pl.kickScaler()
	} else if pl.cfg.IdleTimeout > 0 {
		pl.scheduleReap(sl, sl.info.LastUsed)
	}
}

// scheduleReap arms a reclamation check for a slot that just went idle:
// IdleTimeout later, a slot still idle and untouched since the release at
// asOf is stopped.
func (pl *Platform) scheduleReap(sl *slot, asOf sim.Time) {
	pl.E.After(pl.cfg.IdleTimeout, func() {
		if slotIdle(sl) && sl.info.LastUsed == asOf {
			pl.armStop(sl, false)
		}
	})
}

// armStop takes an idle runtime out of the pool, for an idle reap, an
// autoscaler shrink (byScaler) or a cordoned runtime's drain, on the slot's
// stop proc (StopRuntime sleeps through teardown, so not in the caller's
// event). A stop already live has not started (a started one has moved the
// slot out of idle), so it runs for this decision instead.
func (pl *Platform) armStop(sl *slot, byScaler bool) {
	st := &sl.stop
	st.asOf, st.byScaler = sl.info.LastUsed, byScaler
	if st.Done() {
		st.pl, st.sl = pl, sl
		pl.E.Start(&st.Proc, "stop", st)
	}
}

// stopper is a slot's one way out of the pool; the slot owns it, so at
// most one is live per slot and starting it allocates nothing.
type stopper struct {
	sim.Proc
	pl       *Platform
	sl       *slot
	asOf     sim.Time // the release the stop was decided for
	byScaler bool     // an autoscaler shrink, which asStops counts
}

// Run stops the runtime if it is still registered and idle, and cordoned
// or untouched since the decision (a claim may have come between). A
// cordon after the decision found this proc live and started none, so the
// slot drains here.
func (s *stopper) Run(p *sim.Proc) {
	pl, sl := s.pl, s.sl
	if sl.removed || sl.info.State != LifecycleIdle || !sl.cordoned && sl.info.LastUsed != s.asOf {
		return
	}
	if pl.StopRuntime(p, sl.id) == nil && s.byScaler && !sl.cordoned && pl.om != nil {
		pl.om.asStops.Inc()
	}
	pl.refill()
}

// refill boots in a fixed pool, for the requests parked in the wait ring,
// as many runtimes as the room under the ceiling takes (boots in flight
// count): they cannot re-enter the request path, so capacity that opens
// outside a release would otherwise go to the next arrival. The autoscaler
// sizes its own backlog boots (tick). A failed boot refills nothing, so a
// persistent boot fault cannot loop.
func (pl *Platform) refill() {
	if pl.scaler != nil {
		return
	}
	n := min(pl.cfg.MaxRuntimes-pl.slots.n, pl.waitQ.len()-pl.db.StateCount(LifecycleBooting))
	for ; n > 0; n-- {
		pl.backlogBoot()
	}
}

// backlogBoot boots one runtime, on a proc of its own, for the requests
// parked in the wait ring, and places it.
func (pl *Platform) backlogBoot() {
	pl.E.Spawn("backlog-boot", func(p *sim.Proc) {
		if pl.slots.n >= pl.cfg.MaxRuntimes {
			return // request-path boots got there first
		}
		sl, err := pl.bootSlot(p)
		if pl.scaler != nil {
			pl.scaler.noteBoot(err)
		}
		if err == nil {
			pl.place(sl, true)
		}
	})
}
