package workload

import (
	"fmt"
	"sync"
)

// memoMax bounds a Memo's entries. The harnesses attach only tasks that
// repeat, a few hundred distinct ones; past the bound Attach leaves a task
// alone, and Registry.Execute runs its kernel as it would without a memo.
const memoMax = 4096

// Memo runs each distinct task's kernel once and hands every task with the
// same (App, Method, Params) that one outcome as its Precomputed. Kernels
// are deterministic in exactly those three fields, so the outcome is the
// one Registry.Execute would return. It is for simulation harnesses that
// replay tasks; the serving path runs every kernel. Safe for concurrent
// use: a second caller of a key waits for the first one's kernel.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]map[string]*memoEntry // by (App, Method), then Params
	n       int
}

type memoKey struct{ app, method string }

type memoEntry struct {
	once sync.Once
	pre  Precomputed
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{entries: make(map[memoKey]map[string]*memoEntry)} }

// Attach sets t's Precomputed to the outcome of its kernel, running the
// kernel if no earlier task had t's key. The outcome is shared: nothing
// may write through it. A full memo attaches nothing to a new key.
func (m *Memo) Attach(t *Task) {
	k := memoKey{t.App, t.Method}
	m.mu.Lock()
	byParams := m.entries[k]
	e := byParams[string(t.Params)]
	if e == nil {
		if m.n >= memoMax {
			m.mu.Unlock()
			return
		}
		if byParams == nil {
			byParams = make(map[string]*memoEntry)
			m.entries[k] = byParams
		}
		e = new(memoEntry)
		byParams[string(t.Params)] = e
		m.n++
	}
	m.mu.Unlock()
	e.once.Do(func() { e.pre = execute(*t) })
	t.SetPrecomputed(&e.pre)
}

// execute runs t's kernel through the package's shared apps.
func execute(t Task) Precomputed {
	a, err := ByName(t.App)
	if err != nil {
		return Precomputed{Err: err}
	}
	met, err := a.Execute(t)
	return Precomputed{Metrics: met, Err: err}
}

// Len is how many distinct tasks the memo holds, each of whose kernels ran
// once. It is a test hook.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Check reruns the kernel of every stored task and reports the first whose
// stored outcome differs from the fresh one: an outcome some holder wrote
// through after it was attached. It is a test hook, to call once every
// Attach has returned.
func (m *Memo) Check() error {
	type stored struct {
		task Task
		pre  *Precomputed
	}
	var all []stored
	m.mu.Lock()
	for k, byParams := range m.entries {
		for params, e := range byParams {
			all = append(all, stored{Task{App: k.app, Method: k.method, Params: []byte(params)}, &e.pre})
		}
	}
	m.mu.Unlock()
	for _, s := range all {
		fresh := execute(s.task)
		if s.pre.Metrics != fresh.Metrics || fmt.Sprint(s.pre.Err) != fmt.Sprint(fresh.Err) {
			return fmt.Errorf("workload: memo holds %+v for %s.%s %x, its kernel gives %+v", *s.pre, s.task.App, s.task.Method, s.task.Params, fresh)
		}
	}
	return nil
}
