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

// acquireSlot implements the Dispatcher's allocation policy. sp, when
// non-nil, receives the boot / queue-wait sub-stage durations of this
// allocation (virtual time). abort, when non-nil, is the request's
// cancellation signal: if it fires while the request is parked in the
// wait ring, the wait ends with ErrAborted instead of occupying a queue
// seat (and eventually a slot) for a caller that is gone.
func (pl *Platform) acquireSlot(p *sim.Proc, aid string, sp *obs.Span, abort *sim.Signal) (*slot, error) {
	if abort != nil && abort.Fired() {
		return nil, ErrAborted
	}
	// 1.–2. Idle runtime, best one first: the Scheduler prefers a runtime
	//    that already loaded this code (cache-table CID affinity: "saves
	//    the time for loading codes"), then any idle runtime.
	if sl, affinity := pl.sched.Pick(aid); sl != nil {
		pl.claim(sl)
		if affinity && pl.om != nil {
			pl.om.affinityHits.Inc()
		}
		return sl, nil
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
		return sl, err
	}
	// 4. Bounded admission: with the wait ring at its configured depth,
	//    reject with a typed overload error and a retry-after hint rather
	//    than queueing unboundedly — a flood of flaky clients must not pin
	//    unbounded memory on the cloud side.
	if pl.cfg.MaxQueueDepth > 0 && pl.waitQ.len() >= pl.cfg.MaxQueueDepth {
		if pl.om != nil {
			pl.om.overloadRejects.Inc()
		}
		return nil, &offload.OverloadedError{QueueDepth: pl.waitQ.len(), RetryAfter: pl.retryAfterHint()}
	}
	// 5. Queue FIFO for the next release.
	w := &waiter{sig: sim.NewSignal(pl.E)}
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
	p.Wait(w.sig)
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
		return nil, errors.New("core: dispatcher queue rejected (pool retired)")
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

// RejectQueued wakes every request parked in the wait ring without a slot:
// each one's Prepare returns an error instead of waiting for a release
// that will never come. A fixed pool whose runtimes have all been cordoned
// (a retired cluster shard) hands slots to nobody and boots no
// replacements, so without this its queue would wait forever.
func (pl *Platform) RejectQueued() {
	for w := pl.popLiveWaiter(); w != nil; w = pl.popLiveWaiter() {
		w.sig.Fire() // w.sl stays nil: acquireSlot reports the rejection
	}
	if pl.om != nil {
		pl.om.queueLen.Set(int64(pl.waitQ.len()))
	}
}

func (pl *Platform) releaseSlot(sl *slot) {
	sl.info.LastUsed = pl.E.Now()
	pl.noteHold((pl.E.Now() - sl.acquiredAt).Duration())
	if sl.cordoned {
		// A cordoned runtime takes no further work: no waiter handoff, no
		// Offer back to the scheduler — park it idle and drain it.
		pl.db.Transition(sl.id, LifecycleIdle)
		pl.drainSlot(sl)
		pl.kickScaler() // replacement capacity may be needed
		return
	}
	if w := pl.popLiveWaiter(); w != nil {
		// Hand the slot straight to the queued request: it stays
		// LifecycleActive through the handoff (no idle edge).
		w.sl = sl
		sl.acquiredAt = pl.E.Now()
		if pl.om != nil {
			pl.om.queueLen.Set(int64(pl.waitQ.len()))
		}
		w.sig.Fire()
		return
	}
	pl.db.Transition(sl.id, LifecycleIdle)
	pl.sched.Offer(sl)
	// Idle reclamation: the autoscaler owns it when running (hysteretic
	// shrink toward MinRuntimes); otherwise the legacy per-slot reap.
	if pl.scaler != nil {
		pl.kickScaler()
	} else if pl.cfg.IdleTimeout > 0 {
		pl.scheduleReap(sl, sl.info.LastUsed)
	}
}

// scheduleReap arms a reclamation check for a slot that just went idle.
// The check fires IdleTimeout later and stops the runtime only if it is
// still registered, still idle, and untouched since.
func (pl *Platform) scheduleReap(sl *slot, asOf sim.Time) {
	pl.E.After(pl.cfg.IdleTimeout, func() {
		if !slotIdle(sl) || sl.info.LastUsed != asOf {
			return
		}
		pl.E.Spawn("reap:"+sl.id, func(p *sim.Proc) {
			// Re-check: the slot may have been claimed between the event
			// firing and the proc starting.
			if !slotIdle(sl) || sl.info.LastUsed != asOf {
				return
			}
			_ = pl.StopRuntime(p, sl.id)
		})
	})
}
