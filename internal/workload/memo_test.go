package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// memoCases draws tasks of every app from their own generators, plus tasks
// whose kernels fail: orders and prefixes out of range, a blob that is not
// in the flat format and an app nobody registered.
func memoCases() []Task {
	rng := rand.New(rand.NewSource(46))
	var ts []Task
	for _, a := range Apps() {
		for seq := 0; seq < 3; seq++ {
			ts = append(ts, a.NewTask(rng, seq))
		}
	}
	for _, n := range []int{1, 2001} {
		ts = append(ts, Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(rng.Int63(), n)})
	}
	ts = append(ts,
		Task{App: NameChess, Method: "bestMove", Params: encodeParams(chessParams{Seed: rng.Int63(), Prefix: maxChessPrefix + 1, Depth: 3})},
		Task{App: NameOCR, Method: "recognize", Params: []byte("not a param blob")},
		Task{App: "Minesweeper", Method: "sweep", Params: EncodeLinpackParams(1, 8)},
	)
	return ts
}

// sameOutcome reports whether two executions agree: equal Metrics, and
// either no error or errors with the same text.
func sameOutcome(m1 Metrics, err1 error, m2 Metrics, err2 error) bool {
	return m1 == m2 && fmt.Sprint(err1) == fmt.Sprint(err2)
}

// TestMemoHitEqualsExecute: for tasks of every app, failing ones included,
// the memo's outcome is what a fresh Execute returns, a second task with
// the same key shares the first one's outcome, and no Task field outside
// the key moves what Execute returns.
func TestMemoHitEqualsExecute(t *testing.T) {
	reg := NewRegistry()
	memo := NewMemo()
	cases := memoCases()
	for _, task := range cases {
		name := fmt.Sprintf("%s/%x", task.App, task.Params)
		m, err := reg.Execute(task)

		other := task
		other.Seq, other.ParamBytes, other.FileBytes = task.Seq+7, task.ParamBytes+1, task.FileBytes+2
		other.RoundTrips, other.InteractBytes = task.RoundTrips+3, task.InteractBytes+4
		if m2, err2 := reg.Execute(other); !sameOutcome(m, err, m2, err2) {
			t.Errorf("%s: Execute reads a field outside (App, Method, Params): %+v, %v then %+v, %v", name, m, err, m2, err2)
		}

		first := task
		memo.Attach(&first)
		memo.Attach(&other)
		pre := first.Precomputed()
		if pre == nil || other.Precomputed() != pre {
			t.Fatalf("%s: two tasks with one key hold outcomes %p and %p", name, pre, other.Precomputed())
		}
		if !sameOutcome(m, err, pre.Metrics, pre.Err) {
			t.Errorf("%s: memo holds %+v, %v; Execute returns %+v, %v", name, pre.Metrics, pre.Err, m, err)
		}
		if m2, err2 := reg.Execute(other); !sameOutcome(m, err, m2, err2) {
			t.Errorf("%s: Execute with the memo's outcome attached returns %+v, %v, want %+v, %v", name, m2, err2, m, err)
		}
	}
	if n := memo.Len(); n != len(cases) {
		t.Errorf("memo holds %d tasks for %d distinct ones", n, len(cases))
	}
	if err := memo.Check(); err != nil {
		t.Error(err)
	}
}

// TestMemoRunsAKeyOnce: callers racing on one key store it once and all
// get the one outcome its kernel gave.
func TestMemoRunsAKeyOnce(t *testing.T) {
	memo := NewMemo()
	task := Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(3, 48)}
	pres := make([]*Precomputed, 8)
	var wg sync.WaitGroup
	for i := range pres {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task
			memo.Attach(&tk)
			pres[i] = tk.Precomputed()
		}()
	}
	wg.Wait()
	if n := memo.Len(); n != 1 {
		t.Errorf("8 callers of one key stored %d tasks", n)
	}
	for i, p := range pres {
		if p != pres[0] {
			t.Errorf("caller %d holds outcome %p, caller 0 %p", i, p, pres[0])
		}
	}
}

// TestMemoStopsStoringAtItsBound: past memoMax entries a new key is not
// stored and its task gets no outcome, so Registry.Execute runs its kernel
// as it would without a memo; a stored key still hits.
func TestMemoStopsStoringAtItsBound(t *testing.T) {
	memo := NewMemo()
	stored := Task{App: "Minesweeper", Params: []byte{0, 0}}
	for i := 0; i < memoMax; i++ {
		task := Task{App: "Minesweeper", Params: []byte{byte(i), byte(i >> 8)}}
		memo.Attach(&task)
	}
	task := Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(5, 8)}
	memo.Attach(&task)
	if pre := task.Precomputed(); pre != nil {
		t.Errorf("a full memo attached %+v to a new key", *pre)
	}
	if n := memo.Len(); n != memoMax {
		t.Errorf("a full memo holds %d tasks, want %d", n, memoMax)
	}
	memo.Attach(&stored)
	if stored.Precomputed() == nil {
		t.Error("a full memo attached nothing to a stored key")
	}
}

// TestMemoCheckCatchesAWrite: an outcome written through after Attach is
// what Check reports.
func TestMemoCheckCatchesAWrite(t *testing.T) {
	memo := NewMemo()
	task := Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(9, 16)}
	memo.Attach(&task)
	if err := memo.Check(); err != nil {
		t.Fatal(err)
	}
	task.Precomputed().Metrics.Work++
	if memo.Check() == nil {
		t.Error("Check passed an outcome written after it was attached")
	}
}

// TestMemoHitAllocs: a hit allocates nothing, so a harness replaying one
// task pays for its outcome once.
func TestMemoHitAllocs(t *testing.T) {
	memo := NewMemo()
	task := Task{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(9, 16)}
	memo.Attach(&task)
	if n := testing.AllocsPerRun(100, func() { memo.Attach(&task) }); n != 0 {
		t.Errorf("a memo hit allocates %.1f objects", n)
	}
}
