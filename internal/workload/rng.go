package workload

import "math/rand"

// rngSource is math/rand's additive lagged-Fibonacci source — the one
// rand.NewSource returns — reimplemented so that its stream is the same
// bit for bit at every seed: every seeded input the kernels draw, and so
// every golden, is unchanged. Two things differ from math/rand's own.
// Callers hold the concrete type, so a draw is an inlined call rather than
// a call through rand.Source64. And Seed runs the 1 841 Lehmer steps of
// the seeding as three independent chains instead of one serial chain of
// divisions.
type rngSource struct {
	tap, feed int
	vec       [rngLen]int64 // the feedback register
}

const (
	rngLen = 607
	rngTap = 273

	// The seeding generator: x ← lehmerA·x mod lehmerM, the minimal
	// standard Lehmer generator. lehmerA3 is three steps and lehmerA20 the
	// twenty that math/rand discards before the first word.
	lehmerA   = 48271
	lehmerM   = 1<<31 - 1
	lehmerA3  = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	lehmerA5  = lehmerA3 * lehmerA % lehmerM * lehmerA % lehmerM
	lehmerA10 = lehmerA5 * lehmerA5 % lehmerM
	lehmerA20 = lehmerA10 * lehmerA10 % lehmerM

	rngZeroSeed = 89482311 // what math/rand seeds with for a seed ≡ 0
)

// mulMod returns a·x mod lehmerM for a, x < lehmerM without a division:
// 2³¹ ≡ 1, so the product's high bits fold onto its low ones, and the sum
// is below 2·lehmerM.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// rngCooked is math/rand's 607-word seeding table, recovered from
// math/rand's own output rather than copied.
var rngCooked = cookedFromMathRand()

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (r *rngSource) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seedWords(&r.vec, seed, &rngCooked)
}

// seedWords sets dst[i] to the i-th seeding word of seed xor mask[i].
// math/rand builds word i from three consecutive Lehmer values,
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, after discarding x₁…x₂₀. Each of the
// three positions is a chain of its own that steps by A³, so the three
// multiplications of one word do not wait on each other.
func seedWords(dst *[rngLen]int64, seed int64, mask *[rngLen]int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = rngZeroSeed
	}
	a := mulMod(mulMod(uint64(seed), lehmerA20), lehmerA)
	b := mulMod(a, lehmerA)
	c := mulMod(b, lehmerA)
	for i := range dst {
		dst[i] = int64(a<<40^b<<20^c) ^ mask[i]
		a, b, c = mulMod(a, lehmerA3), mulMod(b, lehmerA3), mulMod(c, lehmerA3)
	}
}

// Uint64 returns the next 64 bits of the stream.
func (r *rngSource) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	r.tap, r.feed = tap, feed
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return uint64(x)
}

// Int63 returns the next draw with its top bit cleared.
func (r *rngSource) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// cookedFromMathRand recovers the seeding table from math/rand's first
// rngLen outputs at one seed. Output k (from 1) replaces register word
// feed_k = (334−k) mod 607 by itself plus word tap_k = 607−k, which still
// holds its seeded value for k ≤ 273 and output k−273 after that. So:
//
//   - k = 274…334 solves words 60…0: reg[334−k] = o_k − o_{k−273};
//   - k = 335…607 solves words 606…334: reg[941−k] = o_k − o_{k−273};
//   - k = 1…273 then solves words 333…61 from those: reg[334−k] = o_k − reg[607−k].
//
// The seeded register is the table xor the seed's words, so xor-ing the
// words out again leaves the table.
func cookedFromMathRand() (cooked [rngLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var reg [rngLen]int64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ {
		reg[rngLen-rngTap-k] = o[k] - o[k-rngTap]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ {
		reg[2*rngLen-rngTap-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[rngLen-rngTap-k] = o[k] - reg[rngLen-k]
	}
	seedWords(&cooked, seed, &reg)
	return cooked
}
