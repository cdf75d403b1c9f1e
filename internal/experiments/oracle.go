package experiments

import (
	"time"

	"rattrap/internal/trace"
)

// ReclaimIdle is the idle timeout of the just-in-time ablation: Figure 11's
// trace replayed with the Monitor & Scheduler reclaiming runtimes idle this
// long.
const ReclaimIdle = 2 * time.Minute

// Oracle is every run behind the paper's evaluation at one seed, each made
// once: `rattrap-bench` prints its tables and Claims are measured over it.
type Oracle struct {
	Seed int64
	// VMs are the four VM-cloud runs Figures 1, 2 and 3 show.
	VMs    *Characterization
	Obs4   *Observation4
	TableI *TableI
	// Comparison is the three-platform run Figure 9 and Table II show.
	Comparison *Comparison
	Figure10   *Figure10
	Figure11   *Figure11
	// Reclaimed is Figure 11's trace replayed with ReclaimIdle.
	Reclaimed *Figure11
}

// RunOracle makes every run of the oracle at seed. The runs are
// independent simulations, so they share the RunCells worker pool (each
// also spreads its own cells over it); every result is a function of the
// seed alone.
func RunOracle(seed int64) (*Oracle, error) {
	o := &Oracle{Seed: seed}
	steps := []func() error{
		// The longest first, so the pool does not end on it alone.
		func() (err error) { o.Figure10, err = RunFigure10(seed); return },
		func() (err error) { o.Figure11, err = RunTrace(trace.DefaultConfig(seed), 0); return },
		func() (err error) { o.Reclaimed, err = RunTrace(trace.DefaultConfig(seed), ReclaimIdle); return },
		func() (err error) { o.Comparison, err = RunComparison(seed); return },
		func() (err error) { o.VMs, err = RunCharacterization(seed); return },
		func() (err error) { o.Obs4, err = RunObservation4(seed); return },
		func() (err error) { o.TableI, err = RunTableI(seed); return },
	}
	if err := RunCells(len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}
	return o, nil
}
