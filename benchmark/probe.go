package main

import (
	"runtime"
	"time"
)

// meter times tight loops over one exported operation of a layer, the way
// testing.B does but reporting the median of several rounds instead of a
// mean: a round interrupted by the machine's other tenant is outvoted.
type meter struct {
	each   time.Duration // length of one round
	rounds int
	quick  bool // -smoke: the heavy probes shrink their fixtures too
}

// probeMeter scales the rounds with the run length: 3 rounds of 112 ms at
// the default 28 s, so that some sixty probes fit in one traced run.
func probeMeter(opt options) meter {
	if opt.smoke {
		return meter{each: time.Millisecond, rounds: 1, quick: true}
	}
	return meter{each: time.Duration(opt.seconds * 4 * float64(time.Millisecond)), rounds: 3}
}

// nsPerOp calls fn(n), which performs the operation n times, with n grown
// until a call fills a round, and returns the median nanoseconds per
// operation. minN is the smallest n that makes sense for the probe.
func (m meter) nsPerOp(minN int, fn func(n int)) float64 {
	n := minN
	var took time.Duration
	for {
		start := time.Now()
		fn(n)
		took = time.Since(start)
		if took >= m.each/4 || n >= 1<<30 {
			break
		}
		n *= 2
	}
	if scaled := int(float64(n) * float64(m.each) / float64(took)); scaled > n {
		n = scaled
	}
	var per series
	for r := 0; r < m.rounds; r++ {
		start := time.Now()
		fn(n)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return per.median()
}

// allocsPerOp is the heap allocations of one fn(n) call divided by n.
func allocsPerOp(n int, fn func(n int)) float64 {
	fn(1) // first-use allocations are set-up, not per-operation cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
