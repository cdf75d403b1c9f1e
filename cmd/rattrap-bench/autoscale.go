package main

import (
	"fmt"
	"io"

	"rattrap/internal/experiments"
)

// runAutoscale races the elastic pool against fixed pools over one bursty
// open-loop arrival schedule, all in virtual time. Two gates:
//
//   - p99: the autoscaled pool must beat every fixed pool no larger than
//     its own measured average size (k*).
//   - remediation: with every other teardown failing, the pool must
//     settle back at its floor with no slot stuck draining — zero
//     permanent capacity loss, the regression the draining-slot leak fix
//     guards.
func runAutoscale(w io.Writer, seed int64) (any, error) {
	rep, err := experiments.RunAutoscale(experiments.DefaultAutoscaleConfig(seed))
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "autoscale: p99 %.0f ms, avg pool %.2f (peak %d), k* = %d\n",
		rep.Auto.P99Millis, rep.Auto.AvgPool, rep.Auto.PeakPool, rep.KStar)
	for _, cell := range rep.Fixed {
		fmt.Fprintf(w, "fixed-%d:   p99 %.0f ms, avg pool %.2f\n",
			cell.FixedSize, cell.P99Millis, cell.AvgPool)
	}
	fmt.Fprintf(w, "teardown-fault: final pool %d (floor %d), draining %d, teardown failures %d\n",
		rep.Fault.FinalPool, experiments.AutoscaleFaultFloor,
		rep.Fault.DrainingFinal, rep.Fault.TeardownFailures)

	for _, cell := range rep.Fixed {
		if cell.FixedSize <= rep.KStar && rep.Auto.P99Millis >= cell.P99Millis {
			return rep, fmt.Errorf("autoscaled p99 %.0f ms does not beat fixed-%d's %.0f ms (k* = %d)",
				rep.Auto.P99Millis, cell.FixedSize, cell.P99Millis, rep.KStar)
		}
	}
	if rep.Fault.TeardownFailures == 0 {
		return rep, fmt.Errorf("teardown-fault cell injected no teardown failures; the remediation gate proved nothing")
	}
	if rep.Fault.FinalPool != experiments.AutoscaleFaultFloor || rep.Fault.DrainingFinal != 0 {
		return rep, fmt.Errorf("permanent capacity loss under teardown faults: final pool %d (want %d), %d slot(s) stuck draining",
			rep.Fault.FinalPool, experiments.AutoscaleFaultFloor, rep.Fault.DrainingFinal)
	}
	return rep, nil
}
