package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rngEdgeSeeds are the edges of math/rand's seed reduction (0 and every
// multiple of 2³¹−1 seed as 89482311; negative seeds wrap) and the int64
// extremes.
var rngEdgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, -(lehmerM - 1), lehmerM + 1, 2 * lehmerM,
	rngZeroSeed, -rngZeroSeed, math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// rngTestSeeds are the seeds the stream is compared at: the edges and 300
// seeds drawn from a fixed stream.
func rngTestSeeds() []int64 {
	seeds := slices.Clone(rngEdgeSeeds)
	pick := rand.New(rand.NewSource(0x5eed))
	for range 300 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand compares rngSource with rand.NewSource over
// 3 000 draws per seed: raw Uint64 and Int63, and a rand.Rand on top of
// each (Intn on both of its paths, Float64). The draws run far past both
// lags and a register turn, and every comparison reseeds a used source.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	var got rngSource
	for _, seed := range rngTestSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for i := range draws {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		want.Seed(seed)
		got.Seed(seed)
		for i := range draws {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		wantR, gotR := rand.New(want), rand.New(&got)
		wantR.Seed(seed)
		gotR.Seed(seed)
		for i := range draws / 3 {
			n := 1 + i*i*7919 // below and above 2³¹: Int31n and Int63n
			if g, w := gotR.Intn(n), wantR.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand %d", seed, n, i, g, w)
			}
			if g, w := gotR.Intn(256), wantR.Intn(256); g != w {
				t.Fatalf("seed %d: Intn(256) draw %d = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := gotR.Float64(), wantR.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// FuzzSourceSeed checks any seed's first 1 300 draws: past both lags and
// two turns of the register.
func FuzzSourceSeed(f *testing.F) {
	for _, seed := range rngEdgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want := rand.NewSource(seed).(rand.Source64)
		var got rngSource
		got.Seed(seed)
		for i := range 1300 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
	})
}

// mathRandGen is a pooled generator as it was before rngSource: math/rand's
// source, drawn from through the rand.Source64 interface.
type mathRandGen struct {
	*rand.Rand
	src rand.Source64
}

func newMathRandGen() *mathRandGen {
	src := rand.NewSource(0).(rand.Source64)
	return &mathRandGen{Rand: rand.New(src), src: src}
}

// lpGenFill and VirusScan.fill on a mathRandGen: the loops they ran before
// rngSource.
func (g *mathRandGen) lpFill(data []float64, seed int64) {
	g.Seed(seed)
	src := g.src
	for i := range data {
		f := float64(src.Int63()) / (1 << 63)
		for f == 1 {
			f = float64(src.Int63()) / (1 << 63)
		}
		data[i] = f*2 - 1
	}
}

func (g *mathRandGen) virusFill(v *VirusScan, target []byte, seed int64, planted, step int) {
	g.Seed(seed)
	src := g.src
	for i := 0; i < len(target); i += 8 {
		binary.LittleEndian.PutUint64(target[i:], unmark(src.Uint64()))
	}
	for i := 0; i < planted; i++ {
		sig := v.sigs[g.Intn(len(v.sigs))]
		off := i*step + g.Intn(step-v.maxSig)
		copy(target[off:], sig)
	}
}

// BenchmarkSeed times one reseed of math/rand's source and of rngSource.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("rngSource", func(b *testing.B) {
		var src rngSource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}

// BenchmarkInputFill times the two input fills of a request, reseed
// included, on math/rand's source through rand.Source64 and on rngSource:
// a Linpack system of order 130 (the middle of tcp-compute's orders, and
// every one a fill-cache miss there) and a 160 KB virus-scan target, the
// mean size, with three signatures planted.
func BenchmarkInputFill(b *testing.B) {
	g := newMathRandGen()
	const n = 130
	want, got := make([]float64, n*n+n), make([]float64, n*n+n)
	g.lpFill(want, 1)
	lpGenFill(got, 1)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			b.Fatalf("linpack fill differs at %d", i)
		}
	}
	b.Run("linpack130/math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.lpFill(want, int64(i))
		}
	})
	b.Run("linpack130/rngSource", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lpGenFill(got, int64(i))
		}
	})

	v := NewVirusScan()
	const size, planted = 160 << 10, 3
	const step = size / (planted + 1)
	wantT, gotT := make([]byte, size), make([]byte, size)
	g.virusFill(v, wantT, 1, planted, step)
	v.fill(gotT, 1, planted, step)
	if !bytes.Equal(wantT, gotT) {
		b.Fatal("virus-scan target differs")
	}
	b.Run("virusscan160KB/math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.virusFill(v, wantT, int64(i), planted, step)
		}
	})
	b.Run("virusscan160KB/rngSource", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.fill(gotT, int64(i), planted, step)
		}
	})
}
