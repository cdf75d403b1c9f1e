package experiments

import (
	"testing"

	"rattrap/internal/workload"
)

// oracleTasks is how many distinct (App, Method, Params) tasks the oracle
// runs at seed 42. Before the experiments shared one task memo, the oracle
// ran 6 658 kernels for them.
const oracleTasks = 590

// TestOracleRunsEachDistinctTaskOnce runs the oracle on a fresh memo: it
// stores, and runs the kernel of, each distinct task once, and every
// outcome it handed out, which the devices, platforms and runtimes held
// all run long, still equals a fresh run of its task's kernel. It swaps
// the package's memo, so it runs serially with the package's other tests.
func TestOracleRunsEachDistinctTaskOnce(t *testing.T) {
	old := tasks
	tasks = workload.NewMemo()
	defer func() { tasks = old }()
	if _, err := RunOracle(42); err != nil {
		t.Fatal(err)
	}
	if n := tasks.Len(); n != oracleTasks {
		t.Errorf("RunOracle(42) stored %d tasks, want %d distinct ones", n, oracleTasks)
	}
	if err := tasks.Check(); err != nil {
		t.Error(err)
	}
}
