package core

import (
	"container/heap"
	"fmt"
)

// Scheduler is the Dispatcher's slot-selection seam: given the pool's idle
// runtimes, pick one for a request. The surrounding machinery — booting up
// to MaxRuntimes, bounded admission, the FIFO wait ring — stays in the
// Platform; a Scheduler only decides *which* idle runtime serves *which*
// app, which is exactly the policy axis the paper varies (§IV-B's
// warehouse-aware dispatching vs. a plain queue).
//
// Schedulers are indexes, not owners: a slot is offered once when it goes
// idle, and entries invalidate lazily — Pick must discard slots that are
// no longer LifecycleIdle (claimed, draining or cordoned since they were
// offered). The slot's inIdle/inAff flags guarantee at most one live entry
// per slot per heap, keeping index sizes O(slots × loaded codes); a slot
// that leaves the pool is dropped eagerly (Forget), because nothing
// promises a later Pick on its AIDs to discard it.
type Scheduler interface {
	// Name labels the policy in configs and documentation.
	Name() string
	// Offer indexes a slot that just became idle.
	Offer(sl *slot)
	// Pick removes and returns the best idle slot for a request on aid, or
	// nil when no idle slot exists. affinity reports whether the pick was a
	// code-affinity hit (the slot already holds aid's code).
	Pick(aid string) (sl *slot, affinity bool)
	// Forget drops every entry of a slot that left the pool, so the index
	// does not keep the dead runtime (and all it references) reachable.
	Forget(sl *slot)
}

// SchedulerPolicy names a built-in Scheduler for Config.
type SchedulerPolicy int

const (
	// SchedAffinity is the paper's warehouse-aware policy and the default:
	// prefer an idle runtime whose ClassLoader already holds the requested
	// code ("saves the time for loading codes"), else the earliest-booted
	// idle runtime.
	SchedAffinity SchedulerPolicy = iota
	// SchedFIFO ignores code placement entirely: always the earliest-booted
	// idle runtime. The baseline policy for platforms where code affinity
	// buys nothing — or for measuring what affinity is worth.
	SchedFIFO
)

func (p SchedulerPolicy) String() string {
	switch p {
	case SchedAffinity:
		return "affinity"
	case SchedFIFO:
		return "fifo"
	}
	return fmt.Sprintf("SchedulerPolicy(%d)", int(p))
}

// newScheduler builds the Scheduler for a policy.
func newScheduler(p SchedulerPolicy) Scheduler {
	switch p {
	case SchedFIFO:
		return &FIFOScheduler{}
	default:
		return &AffinityScheduler{affinity: make(map[string]*slotHeap)}
	}
}

// AffinityScheduler implements the paper's warehouse-affinity dispatch:
// idle slots live in a free-list min-heap keyed by boot sequence, plus one
// min-heap per AID whose runtimes already hold that code (the cache
// table's AID→CID column, turned into a dispatch index). Picks are
// identical to a full in-order scan of the pool.
type AffinityScheduler struct {
	idle     slotHeap
	affinity map[string]*slotHeap
}

// Name implements Scheduler.
func (s *AffinityScheduler) Name() string { return "affinity" }

// Offer indexes an idle slot into the free-list and into the affinity heap
// of every code its runtime holds. Flags dedupe entries — a stale entry
// left by a lazy pop "revives" when the slot goes idle again, which is
// exactly the state it advertises.
func (s *AffinityScheduler) Offer(sl *slot) {
	if !sl.inIdle {
		sl.inIdle = true
		heap.Push(&s.idle, sl)
	}
	sl.rt.EachLoadedCode(func(aid string) {
		if !sl.inAff[aid] {
			sl.inAff[aid] = true
			h := s.affinity[aid]
			if h == nil {
				h = &slotHeap{}
				s.affinity[aid] = h
			}
			heap.Push(h, sl)
		}
	})
}

// Pick implements Scheduler: the earliest-booted idle slot already holding
// aid, else the earliest-booted idle slot.
func (s *AffinityScheduler) Pick(aid string) (*slot, bool) {
	if sl := s.popAffinity(aid); sl != nil {
		return sl, true
	}
	return popIdleHeap(&s.idle), false
}

// popAffinity claims the earliest-booted idle slot that already holds aid,
// or nil.
func (s *AffinityScheduler) popAffinity(aid string) *slot {
	h, ok := s.affinity[aid]
	if !ok {
		return nil
	}
	for h.Len() > 0 {
		sl := heap.Pop(h).(*slot)
		sl.inAff[aid] = false
		if !slotIdle(sl) || !sl.rt.CodeLoaded(aid) {
			continue // stale entry; discard
		}
		if h.Len() == 0 {
			delete(s.affinity, aid)
		}
		return sl
	}
	delete(s.affinity, aid)
	return nil
}

// Forget implements Scheduler. A reaped runtime's AIDs may never be
// requested again (a one-off app, a device that left), so waiting for
// popAffinity to discard the entries would retain them forever.
func (s *AffinityScheduler) Forget(sl *slot) {
	forgetIdle(&s.idle, sl)
	for aid, in := range sl.inAff {
		if !in {
			continue
		}
		h := s.affinity[aid]
		dropFromHeap(h, sl)
		if h.Len() == 0 {
			delete(s.affinity, aid)
		}
	}
	clear(sl.inAff)
}

// FIFOScheduler hands out idle runtimes strictly in boot order, blind to
// code placement.
type FIFOScheduler struct {
	idle slotHeap
}

// Name implements Scheduler.
func (s *FIFOScheduler) Name() string { return "fifo" }

// Offer implements Scheduler.
func (s *FIFOScheduler) Offer(sl *slot) {
	if !sl.inIdle {
		sl.inIdle = true
		heap.Push(&s.idle, sl)
	}
}

// Pick implements Scheduler. A FIFO pick is never an affinity hit, even
// when the earliest idle slot happens to hold the code.
func (s *FIFOScheduler) Pick(aid string) (*slot, bool) {
	return popIdleHeap(&s.idle), false
}

// Forget implements Scheduler.
func (s *FIFOScheduler) Forget(sl *slot) { forgetIdle(&s.idle, sl) }

// forgetIdle drops sl's idle-heap entry, if it has one.
func forgetIdle(h *slotHeap, sl *slot) {
	if sl.inIdle {
		sl.inIdle = false
		dropFromHeap(h, sl)
	}
}

// dropFromHeap deletes sl's entry from h. The scan is linear in a heap that
// holds at most one entry per pooled runtime.
func dropFromHeap(h *slotHeap, sl *slot) {
	for i, x := range *h {
		if x == sl {
			heap.Remove(h, i)
			return
		}
	}
}

// slotIdle reports whether a popped index entry is still claimable.
func slotIdle(sl *slot) bool {
	return !sl.removed && !sl.cordoned && sl.info.State == LifecycleIdle
}

// popIdleHeap pops the earliest-booted still-idle slot, discarding stale
// entries.
func popIdleHeap(h *slotHeap) *slot {
	for h.Len() > 0 {
		sl := heap.Pop(h).(*slot)
		sl.inIdle = false
		if slotIdle(sl) {
			return sl
		}
	}
	return nil
}
