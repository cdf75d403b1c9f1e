package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rattrap/internal/trace"
)

// withWorkers runs fn with the sweep worker count pinned, restoring the
// default afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := sweepWorkers
	sweepWorkers = n
	defer func() { sweepWorkers = old }()
	fn()
}

// TestRunCellsRunsEveryCell: every index is executed exactly once and
// index-addressed results land where the caller put them.
func TestRunCellsRunsEveryCell(t *testing.T) {
	const n = 37
	var calls atomic.Int64
	got := make([]int, n)
	if err := RunCells(n, func(i int) error {
		calls.Add(1)
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("ran %d cells, want %d", calls.Load(), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("cell %d result %d, want %d", i, v, i*i)
		}
	}
}

// TestRunCellsLowestError: with several failing cells, the reported error
// is the lowest-indexed one — what a sequential sweep would have hit
// first — regardless of completion order.
func TestRunCellsLowestError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			err := RunCells(20, func(i int) error {
				switch i {
				case 3:
					return errLow
				case 17:
					return errHigh
				}
				return nil
			})
			if err != errLow {
				t.Fatalf("workers=%d: got %v, want the lowest-indexed error", workers, err)
			}
		})
	}
}

// TestRunCellsZero: an empty sweep is a no-op, not a hang.
func TestRunCellsZero(t *testing.T) {
	if err := RunCells(0, func(i int) error { t.Fatal("cell ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestParallelComparisonMatchesSequential is the golden gate for the
// parallel sweeps: the full workload × platform comparison run on the
// worker pool must render Figure 9 and Table II bit-identically to the
// sequential sweep. Each cell owns its engine, so only merge order could
// diverge — this pins it.
func TestParallelComparisonMatchesSequential(t *testing.T) {
	var seq, par string
	withWorkers(t, 1, func() {
		c, err := RunComparison(11)
		if err != nil {
			t.Fatal(err)
		}
		seq = c.Figure9Render() + "\n" + c.TableIIRender()
	})
	withWorkers(t, 8, func() {
		c, err := RunComparison(11)
		if err != nil {
			t.Fatal(err)
		}
		par = c.Figure9Render() + "\n" + c.TableIIRender()
	})
	if seq != par {
		t.Fatalf("parallel comparison diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}

// TestParallelTraceMatchesSequential: same golden gate for the trace
// replay (Figure 11), whose three platform replays share the generated
// event list read-only. A scaled-down trace keeps the double run fast;
// the full-scale replay is covered by TestFigure11ReproducesPaper.
func TestParallelTraceMatchesSequential(t *testing.T) {
	tcfg := trace.DefaultConfig(11)
	tcfg.Duration = 20 * time.Minute
	var seq, par string
	withWorkers(t, 1, func() {
		f, err := RunTrace(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		seq = f.Render()
	})
	withWorkers(t, 3, func() {
		f, err := RunTrace(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		par = f.Render()
	})
	if seq != par {
		t.Fatalf("parallel trace replay diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}
