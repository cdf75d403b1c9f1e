package core

import (
	"container/heap"
	"slices"
)

// Scheduler is the Dispatcher's slot-selection seam: given the pool's idle
// runtimes, pick one for a request. The surrounding machinery — booting up
// to MaxRuntimes, bounded admission, the FIFO wait ring — stays in the
// Platform; a Scheduler only decides *which* idle runtime serves *which*
// app, which is exactly the policy axis the paper varies (§IV-B's
// warehouse-aware dispatching vs. a plain queue).
//
// Schedulers are indexes, not owners. A slot is offered once when it goes
// idle, and the idle index invalidates lazily: Pick discards entries that
// are no longer LifecycleIdle (claimed, draining or cordoned since they
// were offered), and the slot's inIdle flag keeps at most one entry per
// slot. A slot is added as a holder of a code once, when its runtime loads
// it; runtimes never unload code, so a holder stays one until its slot
// leaves the pool, and then it is dropped eagerly (Forget), because
// nothing promises a later Pick on its AIDs to discard it.
type Scheduler interface {
	// Offer indexes a slot that just became idle.
	Offer(sl *slot)
	// Add records that the slot's runtime just loaded aid's code.
	Add(sl *slot, aid string)
	// Pick removes and returns the best idle slot for a request on aid, or
	// nil when no idle slot exists. affinity reports whether the pick was a
	// code-affinity hit (the slot already holds aid's code).
	Pick(aid string) (sl *slot, affinity bool)
	// Forget drops every entry of a slot that left the pool, so the index
	// does not keep the dead runtime (and all it references) reachable.
	Forget(sl *slot)
}

// newScheduler builds the Dispatcher's policy for a platform kind. Rattrap
// runs the paper's warehouse-aware dispatch: prefer an idle runtime whose
// ClassLoader already holds the requested code ("saves the time for
// loading codes"), else the earliest-booted idle runtime. The baselines
// dispatch FIFO, always the earliest-booted idle runtime: without an App
// Warehouse there is no cache-hit story, so warehouse-aware dispatch buys
// them nothing (each runtime still remembers codes its own ClassLoader
// loaded, but the paper's baselines do not route on that).
func newScheduler(kind Kind) Scheduler {
	if kind == KindRattrap {
		return &AffinityScheduler{holders: make(map[string][]*slot)}
	}
	return &FIFOScheduler{}
}

// AffinityScheduler implements the paper's warehouse-affinity dispatch:
// idle slots live in a free-list min-heap keyed by boot sequence, and every
// AID maps to the slots whose runtimes hold its code (the cache table's
// AID→CID column, turned into a dispatch index). A code is indexed once,
// when it is loaded, not again on every release. Picks are identical to a
// full in-order scan of the pool: the earliest-booted idle slot holding
// the code, else the earliest-booted idle slot.
type AffinityScheduler struct {
	idle    slotHeap
	holders map[string][]*slot // unordered; a slot appears once per AID
	// spare holds emptied holder lists for reuse: AIDs come and go with the
	// runtimes that load them, and a new AID then allocates nothing.
	spare [][]*slot
}

// Offer implements Scheduler. A stale idle-heap entry left by an affinity
// pick "revives" when the slot goes idle again, which is exactly the state
// it advertises.
func (s *AffinityScheduler) Offer(sl *slot) {
	if !sl.inIdle {
		sl.inIdle = true
		heap.Push(&s.idle, sl)
	}
}

// Add implements Scheduler. A slot that already left the pool is not
// indexed: nothing would Forget it again.
func (s *AffinityScheduler) Add(sl *slot, aid string) {
	if sl.removed {
		return
	}
	hs, ok := s.holders[aid]
	if !ok && len(s.spare) > 0 {
		hs = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	s.holders[aid] = append(hs, sl)
	sl.codes = append(sl.codes, aid)
}

// Pick implements Scheduler: the earliest-booted idle slot already holding
// aid, else the earliest-booted idle slot.
func (s *AffinityScheduler) Pick(aid string) (*slot, bool) {
	var best *slot
	for _, sl := range s.holders[aid] {
		if slotIdle(sl) && (best == nil || sl.seq < best.seq) {
			best = sl
		}
	}
	if best != nil {
		return best, true
	}
	return popIdleHeap(&s.idle), false
}

// Forget implements Scheduler. A reaped runtime's AIDs may never be
// requested again (a one-off app, a device that left), so its holder
// entries go now rather than never.
func (s *AffinityScheduler) Forget(sl *slot) {
	forgetIdle(&s.idle, sl)
	for _, aid := range sl.codes {
		hs := s.holders[aid]
		if i := slices.Index(hs, sl); i >= 0 {
			hs[i] = hs[len(hs)-1]
			hs[len(hs)-1] = nil
			hs = hs[:len(hs)-1]
		}
		if len(hs) == 0 {
			delete(s.holders, aid)
			s.spare = append(s.spare, hs)
			continue
		}
		s.holders[aid] = hs
	}
	sl.codes = nil
}

// FIFOScheduler hands out idle runtimes strictly in boot order, blind to
// code placement.
type FIFOScheduler struct {
	idle slotHeap
}

// Offer implements Scheduler.
func (s *FIFOScheduler) Offer(sl *slot) {
	if !sl.inIdle {
		sl.inIdle = true
		heap.Push(&s.idle, sl)
	}
}

// Add implements Scheduler: FIFO does not route on code placement.
func (s *FIFOScheduler) Add(*slot, string) {}

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
