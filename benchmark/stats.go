package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// series is one metric's per-window (or per-repeat, or per-segment) values;
// the reported value is their median.
type series []float64

func (s series) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s series) median() float64 { return quantile(s.sorted(), 0.5) }

func (s series) min() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[0]
}

func (s series) max() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[len(s)-1]
}

// quantile reads the q-quantile of an ascending slice with linear
// interpolation between order statistics, so a reported latency carries the
// samples' own digits instead of a bucket edge.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// usage is a point-in-time reading of everything a window's rates are
// differences of.
type usage struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process (getrusage)
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// rates are one window's end-to-end readings that come from usage deltas.
type rates struct {
	reqPerS, cpuUs, allocs, allocBytes float64
}

func ratesBetween(a, b usage, reqs int64) rates {
	n := float64(reqs)
	if n == 0 {
		return rates{}
	}
	return rates{
		reqPerS:    n / b.at.Sub(a.at).Seconds(),
		cpuUs:      float64((b.cpu - a.cpu).Microseconds()) / n,
		allocs:     float64(b.mallocs-a.mallocs) / n,
		allocBytes: float64(b.bytes-a.bytes) / n,
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM). A run's
// segments all do the same work, so the mark is the largest of several tries
// at one peak: how high a peak comes out depends on where the collector's
// cycles fall, and the largest of seven repeats better than any one.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// calibIters is sized so one calibration spins for about 200 ms on the
// machine the baseline was taken on.
const calibIters = 100_000_000

var calibSink uint64

// calibrate times a fixed integer spin. Two calibrations bracketing a
// workload that differ by more than a tenth mean the machine's speed changed
// under it (a noisy neighbour), and the run is flagged.
func calibrate(iters int) time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

func noisy(before, after time.Duration) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > 0.1*float64(lo)
}
