package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"rattrap/internal/host"
)

// VirusScan is the anti-virus benchmark: it checks an uploaded target
// against a virus signature database, spawning more I/O requests than the
// other benchmarks (§III-A).
//
// The embedded scanner is a real Aho-Corasick multi-pattern automaton built
// once over a deterministic signature corpus; Execute scans a pseudorandom
// target buffer with a known number of planted signatures and verifies the
// match count. Modeled I/O covers staging the transferred file and
// streaming the (paper-scale) signature database.
type VirusScan struct {
	ac     *ahoCorasick
	sigs   [][]byte
	maxSig int // longest signature: plants stay this far from their slot's end
}

// Calibration constants: Table II gives a ≈1.73 MB APK and ≈4.5 MB of
// migrated data per request; DB reads make this the most I/O-bound
// workload. The per-byte scale models scanning the full device filesystem
// image rather than the embedded buffer.
const (
	virusCodeSize    = 1730 * host.KB
	virusParamBytes  = 30 * host.KB
	virusFileBytes   = 4480 * host.KB
	virusResultBytes = 80 * host.KB
	virusDBBytes     = 12 * host.MB // modeled signature DB streamed per scan
	virusOpsPerByte  = 11000        // modeled device ops per real scanned byte
	virusSigCount    = 1200
	virusSigSeed     = 0x5ca47a6 // fixed corpus seed: DB identical everywhere
)

type virusParams struct {
	Seed    int64
	SizeKB  int // real target buffer size
	Planted int // signatures planted in the target
}

// sharedVirusScan builds the signature corpus and its automaton once per
// process. Both are read-only after construction and Execute keeps all
// per-request state in locals and pooled scratch, so every Registry can
// hold the same instance.
var sharedVirusScan = sync.OnceValue(func() *VirusScan {
	v := &VirusScan{}
	rng := rand.New(rand.NewSource(virusSigSeed))
	v.sigs = make([][]byte, virusSigCount)
	for i := range v.sigs {
		sig := make([]byte, 16+rng.Intn(33))
		for j := range sig {
			sig[j] = byte(rng.Intn(256))
		}
		// Marker prefix: targets use the full byte range except 0xEB, so a
		// signature can only occur where it was planted.
		sig[0], sig[1] = 0xEB, 0xFE
		v.sigs[i] = sig
		if len(sig) > v.maxSig {
			v.maxSig = len(sig)
		}
	}
	v.ac = newAhoCorasick(v.sigs)
	return v
})

// NewVirusScan returns the benchmark. The instance is shared process-wide:
// the first call constructs the signature automaton.
func NewVirusScan() *VirusScan { return sharedVirusScan() }

func (v *VirusScan) Name() string         { return NameVirusScan }
func (v *VirusScan) CodeSize() host.Bytes { return virusCodeSize }

// NewTask draws a request: a 64–256 KB real target with 0–6 planted
// signatures; modeled transfer sizes scale with the target.
func (v *VirusScan) NewTask(rng *rand.Rand, seq int) Task {
	p := virusParams{Seed: rng.Int63(), SizeKB: 64 + rng.Intn(193), Planted: rng.Intn(7)}
	scale := float64(p.SizeKB) / 160.0 // mean real size 160 KB -> mean modeled 4.48 MB
	return Task{
		App:        NameVirusScan,
		Method:     "scan",
		Seq:        seq,
		Params:     encodeParams(p),
		ParamBytes: virusParamBytes,
		FileBytes:  host.Bytes(float64(virusFileBytes) * scale),
	}
}

// vsScratch recycles the 64–256 KB target buffer across scans, like
// lpScratch: Execute writes every byte of target[:size] before scanning it,
// so recycled contents never reach a result.
type vsScratch struct{ target []byte }

var vsPool = sync.Pool{New: func() any { return new(vsScratch) }}

// unmark turns every 0xEB byte of w into 0xEC, reserving the signature
// marker for planted content. x has a zero byte where w has the marker; z
// gets 0x80 in exactly those bytes (the carry-free zero-byte test), and
// adding 1 there cannot carry out of the byte.
func unmark(w uint64) uint64 {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	x := w ^ 0xebebebebebebebeb
	z := ^((x&lo7 + lo7) | x | lo7)
	return w + z>>7
}

// fill writes the target: marker-free noise, eight bytes per draw
// (len(target) is a multiple of 1024), then planted signatures at
// non-overlapping random offsets, one per step-sized slot, drawn from the
// same stream.
func (v *VirusScan) fill(target []byte, seed int64, planted, step int) {
	rng := seededRand(seed)
	defer randPool.Put(rng)
	src := rng.src
	for i := 0; i < len(target); i += 8 {
		binary.LittleEndian.PutUint64(target[i:], unmark(src.Uint64()))
	}
	for i := 0; i < planted; i++ {
		sig := v.sigs[rng.Intn(len(v.sigs))]
		off := i*step + rng.Intn(step-v.maxSig)
		copy(target[off:], sig)
	}
}

// Execute scans the target and verifies the planted-signature count.
func (v *VirusScan) Execute(t Task) (Metrics, error) {
	var p virusParams
	if err := decodeParams(t.Params, &p); err != nil {
		return Metrics{}, fmt.Errorf("virusscan: %w", err)
	}
	if p.SizeKB <= 0 || p.SizeKB > 4096 {
		return Metrics{}, fmt.Errorf("virusscan: target size %d KB out of range", p.SizeKB)
	}
	if p.Planted < 0 {
		return Metrics{}, fmt.Errorf("virusscan: %d planted signatures out of range", p.Planted)
	}
	size := p.SizeKB * 1024
	step := size / (p.Planted + 1)
	if step <= v.maxSig {
		return Metrics{}, fmt.Errorf("virusscan: target too small for %d signatures", p.Planted)
	}
	scratch := vsPool.Get().(*vsScratch)
	defer vsPool.Put(scratch)
	if cap(scratch.target) < size {
		scratch.target = make([]byte, size)
	}
	target := scratch.target[:size]
	v.fill(target, p.Seed, p.Planted, step)
	matches := v.ac.scan(target)
	if matches != p.Planted {
		return Metrics{}, fmt.Errorf("virusscan: found %d signatures, planted %d", matches, p.Planted)
	}
	verdict := "clean"
	if matches > 0 {
		verdict = fmt.Sprintf("INFECTED(%d)", matches)
	}
	scale := float64(p.SizeKB) / 160.0
	fileBytes := host.Bytes(float64(virusFileBytes) * scale)
	return Metrics{
		Work:        host.Work(float64(size) * virusOpsPerByte / 1e6),
		IOWrite:     fileBytes,                // stage the uploaded target
		IORead:      fileBytes + virusDBBytes, // re-read target + stream DB
		ResultBytes: virusResultBytes,
		RealOps:     int64(size),
		Output:      fmt.Sprintf("scanned=%dKB verdict=%s", p.SizeKB, verdict),
	}, nil
}

// --- Aho-Corasick multi-pattern automaton ---

// ahoCorasick is a flat goto/fail automaton. Node 0 is the root. The goto
// edges of node n are labels[first[n]:first[n+1]] leading to the
// same-indexed targets (CSR layout); the root's edges are additionally
// expanded into the dense 256-entry root row, where 0 means "no edge, stay
// in the root" — no edge ever leads back to the root. Immutable after
// newAhoCorasick.
type ahoCorasick struct {
	first   []int32 // len nodes+1
	labels  []byte
	targets []int32
	fail    []int32
	hits    []int32 // patterns ending here (including via fail links)
	root    [256]int32
	// rootByte is the root's only out-byte, or -1 when it has several (or
	// none): with one, scan skips ahead to its next occurrence instead of
	// stepping the root state byte by byte.
	rootByte int
}

// newAhoCorasick builds the automaton over non-empty patterns.
func newAhoCorasick(patterns [][]byte) *ahoCorasick {
	// Build the trie with per-node edge lists, in insertion order.
	type edge struct {
		label byte
		to    int32
	}
	trie := [][]edge{nil}
	child := func(n int32, b byte) int32 {
		for _, e := range trie[n] {
			if e.label == b {
				return e.to
			}
		}
		return -1
	}
	hits := []int32{0}
	for _, pat := range patterns {
		cur := int32(0)
		for _, b := range pat {
			nxt := child(cur, b)
			if nxt < 0 {
				nxt = int32(len(trie))
				trie = append(trie, nil)
				hits = append(hits, 0)
				trie[cur] = append(trie[cur], edge{b, nxt})
			}
			cur = nxt
		}
		hits[cur]++
	}
	// BFS to set failure links (standard construction: the failure target
	// of child v reached by byte b from u is the goto of fail(u) on b).
	// Root children fail to the root.
	fail := make([]int32, len(trie))
	queue := make([]int32, 0, len(trie))
	for _, e := range trie[0] {
		queue = append(queue, e.to)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range trie[u] {
			f := fail[u]
			for {
				if n := child(f, e.label); n >= 0 {
					fail[e.to] = n
					break
				}
				if f == 0 {
					break
				}
				f = fail[f]
			}
			hits[e.to] += hits[fail[e.to]]
			queue = append(queue, e.to)
		}
	}
	// Flatten.
	a := &ahoCorasick{
		first:    make([]int32, len(trie)+1),
		labels:   make([]byte, 0, len(trie)-1),
		targets:  make([]int32, 0, len(trie)-1),
		fail:     fail,
		hits:     hits,
		rootByte: -1,
	}
	for n, edges := range trie {
		a.first[n] = int32(len(a.labels))
		for _, e := range edges {
			a.labels = append(a.labels, e.label)
			a.targets = append(a.targets, e.to)
		}
	}
	a.first[len(trie)] = int32(len(a.labels))
	for _, e := range trie[0] {
		a.root[e.label] = e.to
	}
	if len(trie[0]) == 1 {
		a.rootByte = int(trie[0][0].label)
	}
	return a
}

// edge returns the goto target of non-root node n on byte b, or -1. Most
// nodes sit on a single signature's tail and have one child.
func (a *ahoCorasick) edge(n int32, b byte) int32 {
	lo, hi := a.first[n], a.first[n+1]
	if hi-lo == 1 {
		if a.labels[lo] == b {
			return a.targets[lo]
		}
		return -1
	}
	if k := bytes.IndexByte(a.labels[lo:hi], b); k >= 0 {
		return a.targets[int(lo)+k]
	}
	return -1
}

// scan returns the number of pattern occurrences in data.
func (a *ahoCorasick) scan(data []byte) int {
	matches, cur := 0, int32(0)
	for i := 0; i < len(data); i++ {
		b := data[i]
		if cur == 0 && a.rootByte >= 0 {
			// Only one byte leaves the root: every other byte keeps the
			// state and matches nothing, so jump to its next occurrence.
			j := bytes.IndexByte(data[i:], byte(a.rootByte))
			if j < 0 {
				break
			}
			i += j
			b = data[i]
		}
		next := int32(-1)
		for cur != 0 && next < 0 {
			if next = a.edge(cur, b); next < 0 {
				cur = a.fail[cur]
			}
		}
		if next < 0 {
			next = a.root[b]
		}
		cur = next
		matches += int(a.hits[cur])
	}
	return matches
}
