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
	queue    []*resWaiter
	onChange func(inUse int) // optional utilization hook
}

type resWaiter struct {
	n      int
	wake   func()
	abort  bool
	doneCh bool
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
func (r *Resource) Queued() int {
	n := 0
	for _, w := range r.queue {
		if !w.abort {
			n++
		}
	}
	return n
}

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
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.setInUse(r.inUse + n)
		return
	}
	w := &resWaiter{n: n, wake: p.dispatch}
	r.queue = append(r.queue, w)
	p.park()
}

// TryAcquire attempts to take n units without blocking and reports whether
// it succeeded.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of %d", r.name, n, r.capacity))
	}
	if len(r.queue) == 0 && r.inUse+n <= r.capacity {
		r.setInUse(r.inUse + n)
		return true
	}
	return false
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
	for len(r.queue) > 0 {
		w := r.queue[0]
		if w.abort {
			r.queue = r.queue[1:]
			continue
		}
		if r.inUse+w.n > r.capacity {
			return
		}
		r.queue = r.queue[1:]
		r.setInUse(r.inUse + w.n)
		w.doneCh = true
		// Wake as a zero-delay event so the releasing proc finishes its
		// current step before the waiter resumes.
		wake := w.wake
		r.e.After(0, wake)
	}
}

// UseFor acquires n units, sleeps for d, and releases them. It is the
// common "occupy a resource for a service time" idiom.
func (r *Resource) UseFor(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d.Duration())
	r.Release(n)
}
