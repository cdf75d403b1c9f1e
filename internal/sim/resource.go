package sim

import "fmt"

// Resource is a counting resource (e.g. CPU cores, disk channels) with a
// FIFO wait queue. Procs acquire units, possibly blocking in virtual time,
// and release them when done. Acquisition order is strictly first-come
// first-served to keep simulations deterministic and starvation-free.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	// queue[head:] are the parked procs, first come first. Admitting one
	// moves head instead of the slice's start, which would give away the
	// front of the backing array and reallocate it every few waits.
	queue    []resWaiter
	head     int
	onChange func(inUse int) // optional utilization hook
}

// resWaiter is a proc parked in Acquire until n units are free; it is woken
// through its own event.
type resWaiter struct {
	n int
	p *Proc
}

// NewResource returns a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of procs waiting to acquire.
func (r *Resource) Queued() int { return len(r.queue) - r.head }

// OnChange registers fn to be called whenever the in-use count changes,
// with the new count. Used by utilization recorders.
func (r *Resource) OnChange(fn func(inUse int)) { r.onChange = fn }

func (r *Resource) setInUse(n int) {
	r.inUse = n
	if r.onChange != nil {
		r.onChange(n)
	}
}

// Acquire blocks p until n units are available, then holds them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of %d", r.name, n, r.capacity))
	}
	if r.Queued() == 0 && r.inUse+n <= r.capacity {
		r.setInUse(r.inUse + n)
		return
	}
	if r.head > len(r.queue)/2 {
		// Mostly admitted entries: move the live ones down before growing.
		r.queue = r.queue[:copy(r.queue, r.queue[r.head:])]
		r.head = 0
	}
	r.queue = append(r.queue, resWaiter{n: n, p: p})
	p.park()
}

// Release returns n units and wakes queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: resource %q: release %d with %d in use", r.name, n, r.inUse))
	}
	r.setInUse(r.inUse - n)
	r.pump()
}

// pump admits queue heads while they fit. FIFO: a large request at the head
// blocks smaller ones behind it (no barging), matching a fair scheduler.
func (r *Resource) pump() {
	for r.head < len(r.queue) {
		w := r.queue[r.head]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.queue[r.head].p = nil
		r.head++
		r.setInUse(r.inUse + w.n)
		// Wake as a zero-delay event so the releasing proc finishes its
		// current step before the waiter resumes.
		r.e.schedule(&w.p.ev, r.e.now)
	}
	r.queue, r.head = r.queue[:0], 0
}

// UseFor acquires n units, sleeps for d, and releases them. It is the
// common "occupy a resource for a service time" idiom.
func (r *Resource) UseFor(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d.Duration())
	r.Release(n)
}
