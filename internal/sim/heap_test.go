package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refEntry is one scheduling of an event as the reference queue holds it:
// at and seq are copied, because a proc's embedded event is rescheduled
// with a new (at, seq) once it has fired.
type refEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// refQueue is the engine's event queue as it was before the typed heap:
// container/heap ordered by (at, seq).
type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// runPopOrderModel runs a seeded random model — callbacks scheduled with At
// and After (some far ahead, many on shared instants), cancellations, procs
// that Sleep (inline or parked), Wait, Fire and register OnFire callbacks —
// and steps the engine itself, checking every pop against refQueue. Events
// the engine discards on its own (NextEventAt dropping cancelled heads
// inside an inline Sleep) must be the reference's earliest and cancelled.
// It returns how many events were popped.
func runPopOrderModel(t *testing.T, seed int64) int {
	t.Helper()
	e := NewEngine(seed)
	r := rand.New(rand.NewSource(seed))
	delay := func() time.Duration {
		if r.Intn(8) == 0 {
			return time.Duration(r.Intn(1000)) * time.Millisecond
		}
		return time.Duration(r.Intn(4)) * time.Millisecond
	}
	var stash []*Event
	sigs := []*Signal{NewSignal(e), NewSignal(e), NewSignal(e)}
	fire := func(k int) {
		if s := sigs[k]; !s.Fired() {
			s.Fire()
			sigs[k] = NewSignal(e)
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		var ev *Event
		fn := func() {
			if depth < 3 && r.Intn(2) == 0 {
				schedule(depth + 1)
			}
		}
		if r.Intn(2) == 0 {
			ev = e.After(delay(), fn)
		} else {
			ev = e.At(e.Now()+Time(delay()), fn)
		}
		stash = append(stash, ev)
	}
	for i := 0; i < 64; i++ {
		schedule(0)
	}
	for i := 0; i < 8; i++ {
		e.Spawn("p", func(p *Proc) {
			for step := 0; step < 30; step++ {
				switch r.Intn(7) {
				case 0, 1:
					p.Sleep(delay())
				case 2:
					k := r.Intn(len(sigs))
					e.After(delay(), func() { fire(k) })
					p.Wait(sigs[k])
				case 3:
					fire(r.Intn(len(sigs)))
				case 4:
					sigs[r.Intn(len(sigs))].OnFire(func() {})
				case 5:
					schedule(0)
				case 6:
					stash[r.Intn(len(stash))].Cancel()
				}
			}
		})
	}

	e.horizon = math.MaxInt64 // what Run sets
	ref := &refQueue{}
	queued := make(map[uint64]bool) // seqs in ref
	// sync brings ref up to date with the queue after model code ran: first
	// it drops what the engine discarded — a prefix of ref's order, since
	// NextEventAt only ever drops cancelled heads — then it adds what the
	// model scheduled.
	sync := func() {
		present := make(map[uint64]bool, len(e.events))
		for _, ev := range e.events {
			present[ev.seq] = true
		}
		for ref.Len() > 0 && !present[(*ref)[0].seq] {
			x := heap.Pop(ref).(refEntry)
			delete(queued, x.seq)
			if !x.ev.canceled {
				t.Fatalf("seed %d: live event (at %v, seq %d) left the queue without firing", seed, x.at, x.seq)
			}
		}
		old, kept := ref.Len(), 0
		for _, ev := range e.events {
			if queued[ev.seq] {
				kept++
				continue
			}
			queued[ev.seq] = true
			heap.Push(ref, refEntry{at: ev.at, seq: ev.seq, ev: ev})
		}
		if kept != old {
			t.Fatalf("seed %d: engine dropped an event from inside the queue (%d of %d still queued)", seed, kept, old)
		}
	}
	pops := 0
	for {
		sync()
		if len(e.events) == 0 {
			break
		}
		ev := e.events.pop()
		want := heap.Pop(ref).(refEntry)
		delete(queued, want.seq)
		pops++
		if ev.at != want.at || ev.seq != want.seq {
			t.Fatalf("seed %d pop %d: engine popped (at %v, seq %d), reference (at %v, seq %d)",
				seed, pops, ev.at, ev.seq, want.at, want.seq)
		}
		if ev.index != -1 {
			t.Fatalf("seed %d pop %d: popped event keeps heap index %d", seed, pops, ev.index)
		}
		for i, q := range e.events {
			if q.index != i {
				t.Fatalf("seed %d pop %d: event at heap slot %d records index %d", seed, pops, i, q.index)
			}
		}
		if ev.canceled {
			continue
		}
		e.now = ev.at
		if ev.proc != nil {
			ev.proc.dispatch()
		} else {
			ev.fn()
		}
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("seed %d: %d procs never finished", seed, n)
	}
	return pops
}

// TestEventHeapMatchesContainerHeap: the typed heap pops events in exactly
// the order container/heap did, over random mixes of every way an event
// enters or leaves the queue.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	pops := 0
	for seed := int64(1); seed <= 100; seed++ {
		pops += runPopOrderModel(t, seed)
	}
	t.Logf("%d pops over 100 seeds", pops)
	if pops < 10000 {
		t.Fatalf("only %d pops over 100 seeds: the model is too small to exercise the heap", pops)
	}
}
