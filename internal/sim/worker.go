// This file is written in go 1.23 (iter.Pull); the build line states that
// for this file alone, and has no !go1.23 twin: the module's toolchain is
// newer, and both go.mod files move together (see `make lint`).

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// maxIdleWorkers caps the parked coroutines the pool keeps between procs.
// It only has to cover the swing in the number of live procs between one
// moment and the next, not the number itself: a fleet run holds hundreds of
// procs but starts and finishes them a few at a time. Measured on the
// benchmark's sim-churn scenario (73 818 procs, at most 306 alive at once):
// a cap of 16 starts 3 235 workers, 64 starts 360, 256 and up start 306.
const maxIdleWorkers = 64

// worker is a coroutine that runs procs one after another. The engine steps
// it with next, which returns when the proc parks (through yield) or
// finishes; no scheduler is involved, the two sides switch directly. A fresh
// coroutine starts on a minimum stack and grows it under the first deep
// call; a worker keeps the stack the procs before it grew.
type worker struct {
	p     *Proc                   // the proc to start at the next step; set by dispatch
	next  func() (struct{}, bool) // engine side: run the proc until it parks or finishes
	stop  func()                  // engine side: end an idle worker's coroutine
	yield func(struct{}) bool     // proc side: hand control back to the engine
}

// idle is the pool: a LIFO, so the worker that ran last — its stack grown
// and still in cache — runs next. It belongs to the process, not to an
// Engine, because an Engine has no Close: tests and experiments make
// thousands of engines and drop them, and every one would strand its parked
// workers. (A sync.Pool would strand them too, each time it drops an entry
// whose coroutine nobody will ever resume.)
var idle struct {
	sync.Mutex
	ws []*worker
}

// takeWorker returns an idle worker, or starts one. This is the only place
// the package creates a coroutine (make lint holds it to that).
func takeWorker() *worker {
	idle.Lock()
	if n := len(idle.ws); n > 0 {
		w := idle.ws[n-1]
		idle.ws[n-1] = nil
		idle.ws = idle.ws[:n-1]
		idle.Unlock()
		return w
	}
	idle.Unlock()
	w := &worker{}
	w.next, w.stop = iter.Pull(iter.Seq[struct{}](w.loop))
	return w
}

// retire returns w to the pool, or ends its coroutine when the pool is
// full. It runs on the engine's side, after next has returned: released from
// inside the coroutine, w could be taken and stepped by another engine
// before it had yielded.
func (w *worker) retire() {
	idle.Lock()
	if len(idle.ws) < maxIdleWorkers {
		idle.ws = append(idle.ws, w)
		idle.Unlock()
		return
	}
	idle.Unlock()
	w.stop()
}

func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	var p *Proc
	defer func() {
		// p is still set only when its function left by a panic or
		// runtime.Goexit (t.Fatal in a test). Either way the coroutine is
		// over and iter.Pull carries the exit to whoever called next: the
		// goroutine inside Run. It would re-raise a panic there without
		// this stack, so the panic is wrapped here, where the proc's frames
		// still exist.
		if p == nil {
			return
		}
		p.finish()
		if v := recover(); v != nil {
			panic(&ProcPanic{Proc: p.Name, Value: v, Stack: debug.Stack()})
		}
	}()
	for {
		p, w.p = w.p, nil
		p.fn(p)
		p.finish()
		p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// ProcPanic is the value a proc's panic leaves Engine.Run or RunUntil with:
// the panic crosses from the proc's coroutine to the goroutine stepping the
// engine, and the stack it was raised on does not.
type ProcPanic struct {
	Proc  string // the proc's Name
	Value any    // what the proc panicked with
	Stack []byte // debug.Stack() of the proc's coroutine at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Unwrap returns the proc's panic value when that is an error.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}
