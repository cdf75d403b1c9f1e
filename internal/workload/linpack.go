package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"rattrap/internal/host"
)

// Linpack is the mathematical-tools benchmark: dense LU decomposition with
// partial pivoting followed by triangular solves, "implemented in ordinary
// Android Java" in the paper — the pure-computation workload with almost
// no data transfer.
//
// Execute really factorizes an n×n system and checks the residual; the
// analytic flop count (2/3·n³ + 2·n²) scaled by linpackOpsPerFlop models a
// phone-scale problem (~1650×1650).
type Linpack struct{}

// NewLinpack returns the Linpack benchmark.
func NewLinpack() *Linpack { return &Linpack{} }

// Calibration constants: Table II gives a 152 KB APK and under 1 KB of
// migrated data per request; the flop scale makes a typical solve cost
// ≈3000 device-mops (≈10 s locally on the phone).
const (
	linpackCodeSize    = 152 * host.KB
	linpackParamBytes  = 500
	linpackResultBytes = 550
	linpackOpsPerFlop  = 2000
)

type linpackParams struct {
	Seed int64
	N    int
}

func (l *Linpack) Name() string         { return NameLinpack }
func (l *Linpack) CodeSize() host.Bytes { return linpackCodeSize }

// NewTask draws a request: a random system of order 110–149.
func (l *Linpack) NewTask(rng *rand.Rand, seq int) Task {
	p := linpackParams{Seed: rng.Int63(), N: 110 + rng.Intn(40)}
	return Task{
		App:        NameLinpack,
		Method:     "solve",
		Seq:        seq,
		Params:     encodeParams(p),
		ParamBytes: linpackParamBytes,
	}
}

// lpFill is the memoized expansion of one (seed, n) input system: the
// n×n matrix followed by the right-hand side, in PRNG draw order. The
// expansion is a pure function of the seed — reseeding the generator and
// redrawing n²+n values costs ~40 µs per request at n=64, all of it
// spent reproducing floats this snapshot already holds.
type lpFill struct {
	seed int64
	n    int
	data []float64 // len n*n+n: matrix (row-major), then b
}

// The fill cache is a tiny move-to-front LRU. Offload traffic repeats
// (seed, n) pairs heavily — a device retrying, a benchmark's fixed
// system — and lpFillCacheMax bounds it to a few snapshots. Systems
// larger than lpFillCacheMaxOrder skip the cache entirely so one
// n=2000 request cannot pin ~32 MB. Snapshots are only read under
// lpFillMu (a hit copies out), so an insertion can hand the evicted
// snapshot's array to the solve that missed: a stream of distinct systems
// allocates nothing once the arrays in circulation have grown to fit it.
const (
	lpFillCacheMax      = 8
	lpFillCacheMaxOrder = 256
)

var (
	lpFillMu sync.Mutex
	lpFills  []lpFill
)

// lpFillLoad copies the cached (seed, n) system into dst and reports
// whether there was one.
func lpFillLoad(dst []float64, seed int64, n int) bool {
	if n > lpFillCacheMaxOrder {
		return false
	}
	lpFillMu.Lock()
	defer lpFillMu.Unlock()
	for i, f := range lpFills {
		if f.seed == seed && f.n == n {
			copy(lpFills[1:i+1], lpFills[:i])
			lpFills[0] = f
			copy(dst, f.data)
			return true
		}
	}
	return false
}

// lpFillStore gives data to the cache as the (seed, n) system and returns
// the array to go on with: the evicted snapshot's, nil while the cache is
// filling, data itself when the system is too large to cache. Two solves
// that missed on the same system both store it; the copy behind ages out.
func lpFillStore(data []float64, seed int64, n int) []float64 {
	if n > lpFillCacheMaxOrder {
		return data
	}
	lpFillMu.Lock()
	defer lpFillMu.Unlock()
	var spare []float64
	if len(lpFills) < lpFillCacheMax {
		lpFills = append(lpFills, lpFill{})
	} else {
		spare = lpFills[len(lpFills)-1].data
	}
	copy(lpFills[1:], lpFills)
	lpFills[0] = lpFill{seed: seed, n: n, data: data}
	return spare
}

// lpGenFill draws the system into data exactly as the pre-cache fill loops
// did: n² matrix elements row by row, then the n-element right-hand side,
// every value rng.Float64()*2-1 off a fresh source. Float64 is Int63()
// over 1<<63, redrawn the once in 2⁵³ times that rounds up to 1; the loop
// draws the same stream straight off the source.
func lpGenFill(data []float64, seed int64) {
	rng := seededRand(seed)
	defer randPool.Put(rng)
	src := rng.src
	for i := range data {
		f := float64(src.Int63()) / (1 << 63)
		for f == 1 {
			f = float64(src.Int63()) / (1 << 63)
		}
		data[i] = f*2 - 1
	}
}

// lpScratch is the per-solve working set: the input system (fill), one
// contiguous float backing for A and x, and A's row headers. The pool
// recycles them across solves — the realtime server runs a solve on every
// warehouse-hit request, and a fresh 2·n²+2·n float allocation per
// request is both allocs/op and a mandatory memclr of ~64 KB the fill
// immediately overwrites. Every cell is written before it is read (the
// fill is loaded or drawn whole, A and x are copied from it, row headers
// are reassigned), so recycled contents can never leak between solves.
type lpScratch struct {
	fill []float64
	back []float64
	rows [][]float64
}

var lpPool = sync.Pool{New: func() any { return new(lpScratch) }}

// lpSolve solves Ax=b in place — LU with partial pivoting, eliminating b
// (passed in x) as it goes, then back substitution — and reports whether A
// was regular. Row slices are hoisted out of the inner loops (bounds-check
// elimination); the arithmetic — values, order, pivot choice — is
// bit-identical to the textbook nested-index form.
func lpSolve(a [][]float64, x []float64) bool {
	n := len(a)
	for k := 0; k < n; k++ {
		// Pivot.
		piv := k
		maxv := math.Abs(a[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i][k]); v > maxv {
				piv, maxv = i, v
			}
		}
		if a[piv][k] == 0 {
			return false
		}
		if piv != k {
			a[piv], a[k] = a[k], a[piv]
			x[piv], x[k] = x[k], x[piv]
		}
		// Eliminate. a[k] is only read below row k, so its row slice and
		// diagonal are loop-invariant after the swap.
		ak := a[k]
		akk := ak[k]
		xk := x[k]
		rowK := ak[k+1 : n]
		m := len(rowK) // reslicing the rows below to m drops their bounds checks
		// Four rows per pass over the pivot row: one row at a time the loop
		// is bound by its stores, and rowK[j] is loaded once for four
		// updates. Each element still gets the same update in the same k
		// order, so results are bit-identical to the one-row loop below.
		i := k + 1
		for ; i+3 < n; i += 4 {
			a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
			f0, f1, f2, f3 := a0[k]/akk, a1[k]/akk, a2[k]/akk, a3[k]/akk
			a0[k], a1[k], a2[k], a3[k] = f0, f1, f2, f3
			r0, r1, r2, r3 := a0[k+1:][:m], a1[k+1:][:m], a2[k+1:][:m], a3[k+1:][:m]
			for j, v := range rowK {
				r0[j] -= f0 * v
				r1[j] -= f1 * v
				r2[j] -= f2 * v
				r3[j] -= f3 * v
			}
			x[i] -= f0 * xk
			x[i+1] -= f1 * xk
			x[i+2] -= f2 * xk
			x[i+3] -= f3 * xk
		}
		for ; i < n; i++ {
			ai := a[i]
			f := ai[k] / akk
			ai[k] = f
			rowA := ai[k+1:][:m]
			for j, v := range rowK {
				rowA[j] -= f * v
			}
			x[i] -= f * xk
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ai := a[i]
		xi := x[i]
		for j := i + 1; j < n; j++ {
			xi -= ai[j] * x[j]
		}
		x[i] = xi / ai[i]
	}
	return true
}

// Execute factorizes A, solves Ax=b, and verifies the residual.
func (l *Linpack) Execute(t Task) (Metrics, error) {
	var p linpackParams
	if err := decodeParams(t.Params, &p); err != nil {
		return Metrics{}, fmt.Errorf("linpack: %w", err)
	}
	if p.N < 2 || p.N > 2000 {
		return Metrics{}, fmt.Errorf("linpack: order %d out of range", p.N)
	}
	n := p.N
	scratch := lpPool.Get().(*lpScratch)
	defer lpPool.Put(scratch)
	if cap(scratch.fill) < n*n+n {
		scratch.fill = make([]float64, n*n+n)
	}
	if cap(scratch.back) < n*n+n {
		scratch.back = make([]float64, n*n+n)
	}
	if cap(scratch.rows) < n {
		scratch.rows = make([][]float64, n)
	}
	fill := scratch.fill[:n*n+n]
	if !lpFillLoad(fill, p.Seed, n) {
		lpGenFill(fill, p.Seed)
		// The cache takes the array once this solve has read it for the
		// last time.
		defer func() { scratch.fill = lpFillStore(fill, p.Seed, n) }()
	}
	orig, b := fill[:n*n], fill[n*n:]
	aBack := scratch.back[0 : n*n : n*n]
	x := scratch.back[n*n : n*n+n : n*n+n]
	a := scratch.rows[0:n:n]
	copy(aBack, orig)
	copy(x, b)
	for i := range a {
		a[i] = aBack[i*n : (i+1)*n : (i+1)*n]
	}
	if !lpSolve(a, x) {
		return Metrics{}, fmt.Errorf("linpack: singular matrix (n=%d seed=%d)", n, p.Seed)
	}
	// Residual check against the original system.
	var resid, norm float64
	for i := 0; i < n; i++ {
		oi := orig[i*n : (i+1)*n]
		sum := -b[i]
		for j := range oi {
			sum += oi[j] * x[j]
			norm += math.Abs(oi[j])
		}
		resid += math.Abs(sum)
	}
	relResid := resid / (norm / float64(n))
	if relResid > 1e-6 {
		return Metrics{}, fmt.Errorf("linpack: residual %g too large (n=%d)", relResid, n)
	}

	nf := float64(n)
	flops := int64(2.0/3.0*nf*nf*nf + 2*nf*nf)
	// Same string fmt.Sprintf("n=%d residual=%.2e", ...) renders, built
	// with strconv to keep the interface boxing and verb parsing off the
	// hot path ('e' with two digits is exactly what %.2e prints).
	out := make([]byte, 0, 32)
	out = append(out, "n="...)
	out = strconv.AppendInt(out, int64(n), 10)
	out = append(out, " residual="...)
	out = strconv.AppendFloat(out, relResid, 'e', 2, 64)
	return Metrics{
		Work:        host.Work(float64(flops) * linpackOpsPerFlop / 1e6),
		ResultBytes: linpackResultBytes,
		RealOps:     flops,
		Output:      string(out),
	}, nil
}
