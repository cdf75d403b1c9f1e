package sim

import "sync"

// maxIdleWorkers caps the parked goroutines the pool keeps between procs.
// It only has to cover the swing in the number of live procs between one
// moment and the next, not the number itself: a fleet run holds hundreds of
// procs but starts and finishes them a few at a time. Measured on the
// benchmark's sim-churn scenario (73 818 procs, at most 306 alive at once):
// a cap of 16 starts 3 235 goroutines, 64 starts 360, 256 and up start 306.
const maxIdleWorkers = 64

// worker is a goroutine that runs procs one after another, together with
// the two channels it trades control with an engine over. A fresh goroutine
// starts on a minimum stack and grows it under the first deep call; a
// worker keeps the stack the procs before it grew.
type worker struct {
	resume chan *Proc    // engine -> worker: start this proc, or carry on with the parked one
	parked chan struct{} // worker -> engine: the proc parked or finished
}

// idle is the pool: a LIFO, so the worker that ran last — its stack grown
// and still in cache — runs next. It belongs to the process, not to an
// Engine, because an Engine has no Close: tests and experiments make
// thousands of engines and drop them, and every one would strand its parked
// workers. (A sync.Pool would strand them too, each time it drops an entry
// whose goroutine nobody will ever resume.)
var idle struct {
	sync.Mutex
	ws []*worker
}

// takeWorker returns an idle worker, or starts one. This is the only place
// the package starts a goroutine (make lint holds it to that).
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
	w := &worker{resume: make(chan *Proc), parked: make(chan struct{})}
	go w.loop()
	return w
}

// release returns w to the pool, or reports false when the pool is full and
// the worker should exit.
func (w *worker) release() bool {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.ws) >= maxIdleWorkers {
		return false
	}
	idle.ws = append(idle.ws, w)
	return true
}

func (w *worker) loop() {
	var p *Proc
	defer func() {
		// p is still set only when its function left by a panic or
		// runtime.Goexit (t.Fatal in a test). The goroutine is going
		// away, so the worker stays out of the pool, but the engine is
		// waiting in dispatch and must still be told.
		if p != nil {
			p.finish()
			w.parked <- struct{}{}
		}
	}()
	for {
		p = <-w.resume
		p.fn(p)
		p.finish()
		p = nil
		// Back in the pool before the engine is signalled, so that the
		// engine's next start event finds this worker. Another engine may
		// take it at once; its send on resume waits until this loop comes
		// round, which is after the signal below has been received.
		keep := w.release()
		w.parked <- struct{}{}
		if !keep {
			return
		}
	}
}
