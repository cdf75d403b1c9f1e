package rattrap_test

import (
	"math/rand"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/container"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
	"rattrap/internal/trace"
)

// newBenchRand returns the deterministic task generator for benchmarks.
func newBenchRand() *rand.Rand { return rand.New(rand.NewSource(benchSeed)) }

// loadACD inserts the Android Container Driver.
func loadACD(e *sim.Engine, k *kernel.Kernel, p *sim.Proc) error {
	return acd.LoadAll(p, k, acd.Modules(e, k.Release()))
}

// bootCustomized boots the customized Android on a container mounted over
// shared.
func bootCustomized(p *sim.Proc, c *container.Container, shared *image.Image) (*android.Runtime, error) {
	return android.Boot(p, c, android.BootConfig{Image: shared, Customized: true})
}

// traceDefault returns the default trace configuration at the bench seed.
func traceDefault() trace.Config { return trace.DefaultConfig(benchSeed) }
