package main

import (
	"sort"
	"syscall"
	"time"
)

// The yardstick is a fixed piece of work that owes nothing to this
// repository: map lookups, small allocations, a sort, pipe round trips and
// goroutine hand-overs, about what a request is made of. While a window (or a
// set-up) is measured, a goroutine on the run's one P times one op of it every
// yardInterval, so the yardstick sees the machine the window saw. The window's
// timings are divided by how many times slower than yardNominalNs the
// yardstick ran there, its slowdown: what is reported is time on a machine
// that runs the yardstick at its nominal cost (README, "The yardstick").
const (
	// yardNominalNs is one op's cost on the undisturbed baseline machine.
	yardNominalNs = 28000
	yardInterval  = 2 * time.Millisecond
	// yardMinSamples is the fewest samples a slowdown is read from; a
	// window too short for that many is reported as measured.
	yardMinSamples = 8
	// One op's heap allocations, which a window's allocation counts are
	// relieved of.
	yardMallocsPerOp = 16
	yardBytesPerOp   = 16 * 512
)

type yardstick struct {
	m    map[int]int
	keys []int
	ints []int
	work []int
	ring [][]byte
	buf  []byte
	fds  [2]int
	ping chan int
	pong chan int
	at   int
	sum  int
	// samples is the one sampler's buffer: a run samples one window at a
	// time.
	samples []float64
}

func newYardstick() (*yardstick, error) {
	y := &yardstick{m: map[int]int{}, ring: make([][]byte, 256), buf: make([]byte, 64), samples: make([]float64, 0, 1<<13)}
	x := uint64(88172645463325252)
	next := func() int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x >> 1)
	}
	for i := 0; i < 1<<16; i++ {
		k := next()
		y.m[k] = i
		y.keys = append(y.keys, k)
	}
	for i := 0; i < 1<<14; i++ {
		y.ints = append(y.ints, next())
	}
	y.work = make([]int, 256)
	if err := syscall.Pipe(y.fds[:]); err != nil {
		return nil, err
	}
	y.ping, y.pong = make(chan int), make(chan int)
	go func() {
		for v := range y.ping {
			y.pong <- v + 1
		}
	}()
	return y, nil
}

func (y *yardstick) close() {
	close(y.ping)
	syscall.Close(y.fds[0])
	syscall.Close(y.fds[1])
}

// op is one unit of yardstick work: 64 lookups in a map of 65536 keys,
// 16 allocations of 512 bytes, a sort of 256 integers, and four times a pipe
// write and read and a hand-over to another goroutine and back.
func (y *yardstick) op() {
	s := 0
	for i := 0; i < 64; i++ {
		y.at = (y.at + 40503) & (len(y.keys) - 1)
		s += y.m[y.keys[y.at]]
	}
	for i := 0; i < yardMallocsPerOp; i++ {
		b := make([]byte, yardBytesPerOp/yardMallocsPerOp)
		b[s&511] = byte(i)
		y.ring[(y.at+i)&255] = b
	}
	copy(y.work, y.ints[y.at&(len(y.ints)-len(y.work)-1):])
	sort.Ints(y.work)
	for i := 0; i < 4; i++ {
		syscall.Write(y.fds[1], y.buf)
		syscall.Read(y.fds[0], y.buf)
		y.ping <- s
		s = <-y.pong
	}
	y.sum += s + y.work[0]
}

// yardSampler times one op every yardInterval until it is read.
type yardSampler struct {
	yard *yardstick
	stop chan struct{}
	done chan struct{}
}

// yardReading is what a sampler saw of one window: how many times slower
// than nominal the yardstick ran, by the mean of its samples and by their
// median, and how many ops it took to find out. A statistic of the window is
// divided by the same statistic of the yardstick: a mean (throughput, CPU per
// request, a set-up's duration) by the mean, a median latency by the median.
// When the machine flickers between two speeds within a window, a mean moves
// with the share of the window that was slow and a median jumps when that
// share crosses one half, and so does its counterpart here.
type yardReading struct {
	slowdown   float64
	slowdown50 float64
	ops        int
}

// start begins sampling. A nil yardstick gives a nil sampler, which reads a
// slowdown of 1: the traced run's windows are reported as measured.
func (y *yardstick) start() *yardSampler {
	if y == nil {
		return nil
	}
	s := &yardSampler{yard: y, stop: make(chan struct{}), done: make(chan struct{})}
	y.samples = y.samples[:0]
	go func() {
		defer close(s.done)
		t := time.NewTicker(yardInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				begin := time.Now()
				y.op()
				y.samples = append(y.samples, float64(time.Since(begin).Nanoseconds()))
			}
		}
	}()
	return s
}

// read stops the sampler. The mean is taken without the slowest tenth of the
// samples: an op that a collector cycle or the scheduler cut in two.
func (s *yardSampler) read() yardReading {
	if s == nil {
		return yardReading{slowdown: 1, slowdown50: 1}
	}
	close(s.stop)
	<-s.done
	samples := s.yard.samples
	if len(samples) < yardMinSamples {
		return yardReading{slowdown: 1, slowdown50: 1, ops: len(samples)}
	}
	sort.Float64s(samples)
	kept := samples[:len(samples)-len(samples)/10]
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return yardReading{
		slowdown:   sum / float64(len(kept)) / yardNominalNs,
		slowdown50: quantile(samples, 0.5) / yardNominalNs,
		ops:        len(samples),
	}
}

// calibrated turns a window's rates into yardstick times and takes the
// yardstick's own allocations out of its counts.
func (y yardReading) calibrated(r rates, reqs int64) rates {
	n := float64(reqs)
	if n == 0 {
		return r
	}
	return rates{
		reqPerS:    r.reqPerS * y.slowdown,
		cpuUs:      r.cpuUs / y.slowdown,
		allocs:     r.allocs - float64(y.ops*yardMallocsPerOp)/n,
		allocBytes: r.allocBytes - float64(y.ops*yardBytesPerOp)/n,
	}
}
