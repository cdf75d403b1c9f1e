package workload

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// Reference implementations of what the kernels replaced. They live only
// here: the serving path has one automaton, one matcher, one king tracker.

// naiveCount counts every (possibly overlapping) occurrence of every
// pattern in data; a duplicated pattern counts once per copy.
func naiveCount(patterns [][]byte, data []byte) int {
	n := 0
	for _, p := range patterns {
		for i := 0; i+len(p) <= len(data); i++ {
			if bytes.Equal(data[i:i+len(p)], p) {
				n++
			}
		}
	}
	return n
}

// scanKings finds both kings by walking the board, the way inCheck did
// before make/unmake tracked them.
func scanKings(b *board) [2]int {
	k := [2]int{-1, -1}
	for i := 0; i < 128; i++ {
		if !onBoard(i) {
			continue
		}
		switch b.sq[i] {
		case wk:
			k[0] = i
		case -wk:
			k[1] = i
		}
	}
	return k
}

// refRecognizeCell is the byte-wise matcher: Hamming distance pixel by
// pixel against every glyph in alphabet order, strict < keeps the first
// of equally near glyphs.
func refRecognizeCell(o *OCR, cell []byte) byte {
	bestChar, bestDist := byte('?'), glyphPixels+1
	for k := range o.masks {
		d := 0
		for px := 0; px < glyphPixels; px++ {
			if cell[px] != byte(o.masks[k]>>px&1) {
				d++
			}
		}
		if d < bestDist {
			bestDist, bestChar = d, ocrAlphabet[k]
		}
	}
	return bestChar
}

// --- virus scan ---

// acCase is one automaton-vs-naive comparison; wantSkip says which scan
// branch the pattern set must select (one root out-byte: the IndexByte
// skip; several: the dense root row).
type acCase struct {
	name     string
	patterns []string
	hay      string
	wantSkip bool
}

var acCases = []acCase{
	{"one root byte", []string{"\xeb\xfeab", "\xeb\xfeac", "\xeb\xfd"}, "zz\xeb\xfeab\xeb\xeb\xfd\xeb\xfeac\xeb", true},
	{"one root byte, self-overlap", []string{"aa", "aaa"}, "aaaa", true},
	{"one root byte, restart inside a match", []string{"abab", "abac"}, "ababac abababac", true},
	{"single one-byte pattern", []string{"x"}, "xxaxx", true},
	{"many root bytes", []string{"he", "she", "his", "hers"}, "ushers and his heroes; she sells hers", false},
	{"proper suffix", []string{"abcd", "cd", "d"}, "abcd cd d abcabcd", false},
	{"proper prefix", []string{"ab", "abc", "abcd", "b"}, "abcdabcab", false},
	{"duplicates", []string{"ab", "ab", "ba", "ba", "ba"}, "ababab", false},
	{"empty haystack, skip", []string{"ab"}, "", true},
	{"empty haystack, root row", []string{"ab", "ba"}, "", false},
	{"one-byte haystack, skip hit", []string{"a"}, "a", true},
	{"one-byte haystack, skip miss", []string{"a"}, "b", true},
	{"one-byte haystack, root row", []string{"a", "b"}, "b", false},
	{"no patterns", nil, "abc", false},
}

func TestAhoCorasickBranches(t *testing.T) {
	for _, c := range acCases {
		pats := make([][]byte, len(c.patterns))
		for i, p := range c.patterns {
			pats[i] = []byte(p)
		}
		ac := newAhoCorasick(pats)
		if skip := ac.rootByte >= 0; skip != c.wantSkip {
			t.Errorf("%s: root skip = %v, want %v", c.name, skip, c.wantSkip)
		}
		if got, want := ac.scan([]byte(c.hay)), naiveCount(pats, []byte(c.hay)); got != want {
			t.Errorf("%s: automaton found %d, naive found %d", c.name, got, want)
		}
	}
	if ac := NewVirusScan().ac; ac.rootByte != 0xEB {
		t.Errorf("signature corpus root byte = %#x, want the 0xEB marker (skip branch)", ac.rootByte)
	}
}

// randomPatternSet draws patterns over a small alphabet so overlaps,
// shared prefixes, suffix relations and duplicates all happen. With
// oneRoot every pattern is made to start with the same byte.
func randomPatternSet(rng *rand.Rand, oneRoot bool) [][]byte {
	alphabet := 2 + rng.Intn(3)
	pats := make([][]byte, 1+rng.Intn(8))
	for i := range pats {
		p := make([]byte, 1+rng.Intn(6))
		for j := range p {
			p[j] = byte('a' + rng.Intn(alphabet))
		}
		pats[i] = p
	}
	pick := func() []byte { return bytes.Clone(pats[rng.Intn(len(pats))]) }
	if rng.Intn(3) == 0 { // a duplicate
		pats = append(pats, pick())
	}
	if p := pick(); rng.Intn(3) == 0 && len(p) > 1 { // a proper suffix
		pats = append(pats, p[1+rng.Intn(len(p)-1):])
	}
	if p := pick(); rng.Intn(3) == 0 && len(p) > 1 { // a proper prefix
		pats = append(pats, p[:1+rng.Intn(len(p)-1)])
	}
	if oneRoot {
		for _, p := range pats {
			p[0] = 'a'
		}
	}
	return pats
}

func TestPropertyFlatAutomatonMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(0xac))
	branches := map[bool]int{}
	for iter := 0; iter < 2000; iter++ {
		oneRoot := iter%2 == 0
		pats := randomPatternSet(rng, oneRoot)
		hay := make([]byte, rng.Intn(120))
		for i := range hay {
			hay[i] = byte('a' + rng.Intn(4))
		}
		ac := newAhoCorasick(pats)
		branches[ac.rootByte >= 0]++
		if got, want := ac.scan(hay), naiveCount(pats, hay); got != want {
			t.Fatalf("iter %d: patterns %q in %q: automaton found %d, naive found %d", iter, pats, hay, got, want)
		}
	}
	if branches[true] < 500 || branches[false] < 500 {
		t.Fatalf("branch coverage skewed: skip %d, root row %d", branches[true], branches[false])
	}
}

// FuzzAhoCorasick: packed holds the patterns separated by 0xFF bytes
// (empty pieces are dropped — the automaton is built over non-empty
// patterns only).
func FuzzAhoCorasick(f *testing.F) {
	for _, c := range acCases {
		var packed []byte
		for i, p := range c.patterns {
			if i > 0 {
				packed = append(packed, 0xFF)
			}
			packed = append(packed, p...)
		}
		f.Add(packed, []byte(c.hay))
	}
	f.Fuzz(func(t *testing.T, packed, hay []byte) {
		var pats [][]byte
		for _, p := range bytes.Split(packed, []byte{0xFF}) {
			if len(p) > 0 {
				pats = append(pats, p)
			}
		}
		if got, want := newAhoCorasick(pats).scan(hay), naiveCount(pats, hay); got != want {
			t.Fatalf("patterns %q in %q: automaton found %d, naive found %d", pats, hay, got, want)
		}
	})
}

func TestVirusScanRejectsNegativePlanted(t *testing.T) {
	p := virusParams{Seed: 1, SizeKB: 64, Planted: -1}
	if _, err := NewVirusScan().Execute(Task{App: NameVirusScan, Params: encodeParams(p)}); err == nil {
		t.Fatal("negative planted count accepted")
	}
}

// --- ocr ---

func TestOCRPackedMatcherEqualsBytewise(t *testing.T) {
	o := NewOCR()
	rng := rand.New(rand.NewSource(0x0c2))
	var img []byte
	var want []byte
	addCell := func(cell []byte) {
		img = append(img, cell...)
		want = append(want, refRecognizeCell(o, cell))
	}
	cellOf := func(mask uint64) []byte {
		cell := make([]byte, glyphPixels)
		for px := range cell {
			cell[px] = byte(mask >> px & 1)
		}
		return cell
	}
	// Uniformly random cells: far from every glyph, so near-ties are common.
	for i := 0; i < 3000; i++ {
		addCell(cellOf(rng.Uint64()))
	}
	// Exact ties: a cell halfway between two glyphs (half of their differing
	// pixels flipped) is equally far from both; the earlier one must win.
	ties := 0
	for a := range o.masks {
		for b := a + 1; b < len(o.masks); b++ {
			diff := o.masks[a] ^ o.masks[b]
			cell, flipped, total := o.masks[a], 0, 0
			for px := 0; px < glyphPixels; px++ {
				if diff>>px&1 == 1 {
					total++
				}
			}
			if total%2 != 0 {
				continue
			}
			for px := 0; px < glyphPixels && flipped < total/2; px++ {
				if diff>>px&1 == 1 {
					cell ^= 1 << px
					flipped++
				}
			}
			ties++
			addCell(cellOf(cell))
		}
	}
	if ties == 0 {
		t.Fatal("font has no glyph pair at even distance: no exact tie exercised")
	}
	got, ops := o.recognize(img)
	if got != string(want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cell %d: packed matcher says %q, byte-wise says %q", i, got[i], want[i])
			}
		}
	}
	if wantOps := int64(len(want)) * int64(len(ocrAlphabet)) * glyphPixels; ops != wantOps {
		t.Fatalf("ops = %d, want %d", ops, wantOps)
	}
}

// --- chess ---

// perftPosition plays a seeded random game prefix from the initial position.
func perftPosition(seed int64) *board {
	b := newBoard()
	rng := rand.New(rand.NewSource(seed))
	for i, n := 0, 4+rng.Intn(60); i < n; i++ {
		moves := b.legalMoves(0)
		if len(moves) == 0 {
			break
		}
		b.make(moves[rng.Intn(len(moves))])
	}
	return b
}

// perftChecked counts leaf nodes of the legal move tree, asserting after
// every make and unmake that the tracked king squares equal a board scan.
func perftChecked(t *testing.T, b *board, depth int) int64 {
	if depth == 0 {
		return 1
	}
	var n int64
	for _, m := range b.legalMoves(depth) {
		b.make(m)
		if got := scanKings(b); got != b.king {
			t.Fatalf("after make %s: tracked kings %v, board scan %v", m, b.king, got)
		}
		n += perftChecked(t, b, depth-1)
		b.unmake(m)
		if got := scanKings(b); got != b.king {
			t.Fatalf("after unmake %s: tracked kings %v, board scan %v", m, b.king, got)
		}
	}
	return n
}

// perftAtParent holds perft(3) from perftPosition(1..20) as counted by the
// scanning-kingSquare engine at commit bfba87f.
var perftAtParent = [20]int64{
	21866, 60979, 41686, 59649, 26245, 37657, 45850, 27345, 45698, 31848,
	22650, 23328, 17344, 46197, 4416, 53971, 34918, 39008, 13554, 37950,
}

func TestChessKingTrackingAndPerft(t *testing.T) {
	for i, want := range perftAtParent {
		b := perftPosition(int64(i + 1))
		if got := perftChecked(t, b, 3); got != want {
			t.Errorf("position %d: perft(3) = %d, parent counted %d", i+1, got, want)
		}
	}
}

// TestChessCapturedKingIsInCheck: pseudo-legal generation can take a king
// (a hand-built position where the side not to move is already attacked);
// make must record the king as gone, inCheck must then report check, and
// unmake must bring it back.
func TestChessCapturedKingIsInCheck(t *testing.T) {
	b := &board{white: true}
	b.sq[4] = wk       // e1
	b.sq[3] = wr       // d1
	b.sq[7*16+3] = -wk // d8, on the rook's open file
	b.king = scanKings(b)
	var capture *move
	for _, m := range b.pseudoMoves(nil) {
		if m.captured == -wk {
			m := m
			capture = &m
		}
	}
	if capture == nil {
		t.Fatal("rook does not see the king")
	}
	b.make(*capture)
	if b.king != scanKings(b) || b.king[1] != -1 {
		t.Fatalf("after king capture: tracked %v, scan %v", b.king, scanKings(b))
	}
	if !b.inCheck(-1) {
		t.Fatal("side without a king not reported in check")
	}
	b.unmake(*capture)
	if b.king != scanKings(b) || b.king[1] != 7*16+3 {
		t.Fatalf("after unmake: tracked %v, scan %v", b.king, scanKings(b))
	}
}

// --- sharing ---

func TestAppsAreShared(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, name := range []string{NameVirusScan, NameOCR} {
		x, _ := a.Get(name)
		y, _ := b.Get(name)
		if x != y {
			t.Errorf("%s: two registries hold different instances", name)
		}
	}
	if NewVirusScan() != NewVirusScan() || NewOCR() != NewOCR() {
		t.Error("constructors return distinct instances")
	}
}

// TestConcurrentExecuteSharedApps runs all four apps from several
// registries at once: the shared automaton, font and pooled scratch must
// give every goroutine the sequential result (and stay quiet under -race).
func TestConcurrentExecuteSharedApps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var tasks []Task
	var want []Metrics
	seq := NewRegistry()
	for _, app := range Apps() {
		for i := 0; i < 6; i++ {
			task := app.NewTask(rng, i)
			m, err := seq.Execute(task)
			if err != nil {
				t.Fatal(err)
			}
			tasks, want = append(tasks, task), append(want, m)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reg := NewRegistry()
			for k := range tasks {
				i := (k + g*5) % len(tasks)
				m, err := reg.Execute(tasks[i])
				if err != nil || m != want[i] {
					t.Errorf("goroutine %d, %s#%d: %+v, %v; sequential run gave %+v", g, tasks[i].App, tasks[i].Seq, m, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// --- benchmarks ---

var kernelSink Metrics

// BenchmarkKernels reports ns/op, B/op and allocs/op of one Execute per
// app over a fixed task mix, and of building the shared tables.
func BenchmarkKernels(b *testing.B) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(77))
	run := func(name string, tasks []Task) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := reg.Execute(tasks[i%len(tasks)])
				if err != nil {
					b.Fatal(err)
				}
				kernelSink = m
			}
		})
	}
	for _, c := range []struct{ bench, app string }{
		{"virusscan", NameVirusScan}, {"ocr", NameOCR}, {"chess", NameChess},
	} {
		app, err := reg.Get(c.app)
		if err != nil {
			b.Fatal(err)
		}
		tasks := make([]Task, 32)
		for i := range tasks {
			tasks[i] = app.NewTask(rng, i)
		}
		run(c.bench, tasks)
	}
	run("linpack128", []Task{{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(7, 128)}})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		sigs := NewVirusScan().sigs
		for i := 0; i < b.N; i++ {
			if ac := newAhoCorasick(sigs); len(ac.fail) == 0 {
				b.Fatal("empty automaton")
			}
		}
	})
}
