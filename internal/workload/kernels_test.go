package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// scanScore sums squareScore over the board, the way eval did before
// make/unmake carried the score with the piece.
func scanScore(b *board) int32 {
	score := int32(0)
	for r := 0; r < 8; r++ {
		for i := r * 16; i < r*16+8; i++ {
			score += squareScore[b.sq[i]+wk][i]
		}
	}
	return score
}

// track sets the state make/unmake maintain on a hand-built position.
func (b *board) track() {
	b.king, b.score = scanKings(b), scanScore(b)
}

// refLegalMoves is the filter legalMoves replaced: every pseudo-legal move
// is made, probed for check and unmade.
func refLegalMoves(b *board) []move {
	sign := b.mySign()
	var legal []move
	for _, m := range b.pseudoMoves(nil) {
		b.make(m)
		if !b.inCheck(sign) {
			legal = append(legal, m)
		}
		b.unmake(m)
	}
	return legal
}

// renderText and recognizeStrip run the OCR halves on fresh buffers.
func renderText(o *OCR, text string) []byte {
	img := make([]byte, len(text)*glyphPixels)
	o.render(img, text)
	return img
}

func recognizeStrip(o *OCR, img []byte) (string, int64) {
	out := make([]byte, len(img)/glyphPixels)
	ops := o.recognize(out, img)
	return string(out), ops
}

// refSolve is the elimination lpSolve replaced, in the textbook
// nested-index form: one row at a time, one element at a time.
func refSolve(a [][]float64, x []float64) bool {
	n := len(a)
	for k := 0; k < n; k++ {
		piv, maxv := k, math.Abs(a[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i][k]); v > maxv {
				piv, maxv = i, v
			}
		}
		if a[piv][k] == 0 {
			return false
		}
		a[piv], a[k] = a[k], a[piv]
		x[piv], x[k] = x[k], x[piv]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			a[i][k] = f
			for j := k + 1; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x[i]
		for j := i + 1; j < n; j++ {
			xi -= a[i][j] * x[j]
		}
		x[i] = xi / a[i][i]
	}
	return true
}

// refUnmark is the bytewise marker fix the fill loop did before it drew
// eight bytes at a time.
func refUnmark(w uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	for i := range b {
		if b[i] == 0xEB {
			b[i] = 0xEC
		}
	}
	return binary.LittleEndian.Uint64(b[:])
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
	got, ops := recognizeStrip(o, img)
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

// chessCoverage counts what a checked walk met, so a walk that never left
// the fast path cannot pass for a test of the slow one.
type chessCoverage struct {
	inCheck    int // nodes with the mover in check
	pinKept    int // legal moves of a shielding piece (along its pin line)
	pinDropped int // illegal ones
	promotions int
	bareKings  int // nodes with nothing but the two kings
}

// checkTracked asserts that the state make/unmake carry equals a scan.
func checkTracked(t *testing.T, b *board, after string, m move) {
	t.Helper()
	if got := scanKings(b); got != b.king {
		t.Fatalf("after %s %s: tracked kings %v, board scan %v", after, m, b.king, got)
	}
	if got := scanScore(b); got != b.score {
		t.Fatalf("after %s %s: tracked score %d, board scan %d", after, m, b.score, got)
	}
}

// legalChecked returns b.legalMoves(ply) after comparing it, move for move,
// with the make/inCheck/unmake filter, and shields with what it stands for:
// out of check, lifting the piece off the board exposes the king.
func legalChecked(t *testing.T, b *board, ply int, cov *chessCoverage) []move {
	t.Helper()
	want := refLegalMoves(b)
	sign := b.mySign()
	k := b.king[kingIndex(sign)]
	var shield [128]bool
	pieces := 0
	if k < 0 || b.attacked(k, -sign) {
		cov.inCheck++
	} else {
		for from, p := range b.sq {
			if p != empty {
				pieces++
			}
			if p*sign <= 0 || from == k {
				continue
			}
			b.sq[from] = empty
			shield[from] = b.attacked(k, -sign)
			b.sq[from] = p
			if got := b.shields(from, k, sign); got != shield[from] {
				t.Fatalf("shields(%s) with the king on %s = %v; lifting the piece says %v\n%v", sqName(from), sqName(k), got, shield[from], b.sq)
			}
		}
		if pieces == 2 {
			cov.bareKings++
		}
	}
	wi := 0
	for _, m := range b.pseudoMoves(nil) {
		legal := wi < len(want) && want[wi] == m
		if legal {
			wi++
		}
		switch {
		case shield[m.from] && legal:
			cov.pinKept++
		case shield[m.from]:
			cov.pinDropped++
		}
		if legal && m.promo != empty {
			cov.promotions++
		}
	}
	got := b.legalMoves(ply)
	if !slices.Equal(got, want) {
		t.Fatalf("legalMoves = %v, the make/unmake filter says %v\n%v", got, want, b.sq)
	}
	return got
}

// perftChecked counts leaf nodes of the legal move tree, checking the move
// list at every node (legalChecked) and, after every make and unmake, the
// tracked king squares and score against a board scan.
func perftChecked(t *testing.T, b *board, depth int, cov *chessCoverage) int64 {
	if depth == 0 {
		return 1
	}
	var n int64
	for _, m := range legalChecked(t, b, depth, cov) {
		b.make(m)
		checkTracked(t, b, "make", m)
		n += perftChecked(t, b, depth-1, cov)
		b.unmake(m)
		checkTracked(t, b, "unmake", m)
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
	var cov chessCoverage
	for i, want := range perftAtParent {
		b := perftPosition(int64(i + 1))
		if got := perftChecked(t, b, 3, &cov); got != want {
			t.Errorf("position %d: perft(3) = %d, parent counted %d", i+1, got, want)
		}
	}
	if cov.inCheck == 0 || cov.pinKept == 0 || cov.pinDropped == 0 {
		t.Errorf("walk too tame to test legality: %+v", cov)
	}
	t.Logf("coverage %+v", cov)
}

// TestChessLegalityAlongLongGames replays the 40 long random games of
// kernelTasks — checks, pins, promotions, bare kings — with the same
// checks at every ply.
func TestChessLegalityAlongLongGames(t *testing.T) {
	var cov chessCoverage
	games := 0
	for _, k := range kernelTasks() {
		if !strings.HasPrefix(k.label, NameChess+"/long") {
			continue
		}
		games++
		var p chessParams
		if err := decodeParams(k.task.Params, &p); err != nil {
			t.Fatal(err)
		}
		b := newBoard()
		rng := rand.New(rand.NewSource(p.Seed))
		for i := 0; i < p.Prefix; i++ {
			moves := legalChecked(t, b, 0, &cov)
			if len(moves) == 0 {
				break
			}
			m := moves[rng.Intn(len(moves))]
			b.make(m)
			checkTracked(t, b, "make", m)
		}
	}
	if games != 40 || cov.inCheck == 0 || cov.pinKept == 0 || cov.pinDropped == 0 || cov.promotions == 0 || cov.bareKings == 0 {
		t.Errorf("%d games, coverage %+v: want 40 games and every kind of node", games, cov)
	}
	t.Logf("coverage %+v", cov)
}

// TestChessRejectsUnboundedPrefix: the prefix is played before anything can
// stop the request, and a bare-kings game never ends by itself.
func TestChessRejectsUnboundedPrefix(t *testing.T) {
	c := NewChess()
	for _, prefix := range []int{-1, maxChessPrefix + 1, 1 << 62} {
		task := Task{App: NameChess, Params: encodeParams(chessParams{Seed: 1, Prefix: prefix, Depth: 1})}
		if m, err := c.Execute(task); err == nil || !strings.Contains(err.Error(), "out of range") || m != (Metrics{}) {
			t.Errorf("prefix %d: %+v, %v; want an out-of-range error", prefix, m, err)
		}
	}
	task := Task{App: NameChess, Params: encodeParams(chessParams{Seed: 1, Prefix: maxChessPrefix, Depth: 1})}
	if _, err := c.Execute(task); err != nil {
		t.Errorf("prefix %d: %v", maxChessPrefix, err)
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
	b.track()
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

// --- linpack ---

// lpSystem draws the (seed, n) system and lays it out as rows plus x = b.
func lpSystem(seed int64, n int) (fill []float64, a [][]float64, x []float64) {
	fill = make([]float64, n*n+n)
	lpGenFill(fill, seed)
	back := slices.Clone(fill)
	a = make([][]float64, n)
	for i := range a {
		a[i] = back[i*n : (i+1)*n]
	}
	return fill, a, back[n*n:]
}

// lpAgainstRef runs lpSolve and refSolve on twin copies of one system and
// says what differs, bit for bit: the singularity verdict, and for a
// regular system x and every LU element ("" when nothing does).
func lpAgainstRef(a [][]float64, x []float64, ra [][]float64, rx []float64) string {
	ok := lpSolve(a, x)
	if ok != refSolve(ra, rx) {
		return "the two eliminations disagree on singularity"
	}
	if !ok {
		return ""
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(rx[i]) {
			return fmt.Sprintf("x[%d] = %v, the textbook loop gives %v", i, x[i], rx[i])
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(ra[i][j]) {
				return fmt.Sprintf("LU[%d][%d] = %v, the textbook loop gives %v", i, j, a[i][j], ra[i][j])
			}
		}
	}
	return ""
}

// Orders 2…160: one panel up to order 4, then every panel count up to
// 40, last panels one to four columns wide, an even and
// an odd number of trailing rows under each panel, and tcp-compute's
// orders 110–149. Execute's Output is checked for every system up to order
// 67 and for the first seed beyond (the race detector makes each solve
// ten times dearer).
func TestLinpackBlockedEliminationEqualsRolled(t *testing.T) {
	l := NewLinpack()
	swaps := 0
	for n := 2; n <= 160; n++ {
		for k, seed := range []int64{1, -7, 1 << 40} {
			fill, a, x := lpSystem(seed, n)
			rng := rand.New(rand.NewSource(seed))
			for i, v := range fill {
				if want := rng.Float64()*2 - 1; v != want {
					t.Fatalf("n=%d seed=%d: fill[%d] = %v, rng.Float64()*2-1 gives %v", n, seed, i, v, want)
				}
			}
			_, ra, rx := lpSystem(seed, n)
			top := &a[0][0]
			if msg := lpAgainstRef(a, x, ra, rx); msg != "" {
				t.Fatalf("n=%d seed=%d: %s", n, seed, msg)
			}
			if &a[0][0] != top {
				swaps++
			}
			if n > 67 && k > 0 {
				continue
			}
			// The residual as Execute computes it, over the reference x.
			var resid, norm float64
			for i := 0; i < n; i++ {
				sum := -fill[n*n+i]
				for j := 0; j < n; j++ {
					sum += fill[i*n+j] * rx[j]
					norm += math.Abs(fill[i*n+j])
				}
				resid += math.Abs(sum)
			}
			want := fmt.Sprintf("n=%d residual=%.2e", n, resid/(norm/float64(n)))
			task := Task{App: NameLinpack, Params: EncodeLinpackParams(seed, n)}
			for _, path := range []string{"miss", "hit"} {
				if m, err := l.Execute(task); err != nil || m.Output != want {
					t.Fatalf("n=%d seed=%d, fill-cache %s: Output %q, %v; want %q", n, seed, path, m.Output, err, want)
				}
			}
		}
	}
	if swaps == 0 {
		t.Error("no pivot swap in 477 systems")
	}
}

// A column of zeros stays exactly zero through elimination (every update to
// it is 0 - f·0), so its step meets a zero pivot: in a later panel, at a
// panel's first and last column, in a narrow last panel. Both eliminations
// must report the system singular.
func TestLinpackSingularInLaterPanel(t *testing.T) {
	for _, c := range []struct{ n, col int }{{64, 36}, {64, 39}, {64, 45}, {97, 96}, {150, 121}} {
		_, a, x := lpSystem(3, c.n)
		_, ra, rx := lpSystem(3, c.n)
		for i := range a {
			a[i][c.col], ra[i][c.col] = 0, 0
		}
		if got, ref := lpSolve(a, x), refSolve(ra, rx); got || ref {
			t.Errorf("n=%d, column %d zero: lpSolve regular %v, refSolve regular %v; want both singular",
				c.n, c.col, got, ref)
		}
	}
}

// FuzzLpSolve: any drawn system of order 2–96, with one column zeroed
// when zero < n (an exact zero pivot), factors bit for bit as refSolve's.
func FuzzLpSolve(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(255))
	f.Add(int64(-7), uint8(94), uint8(40))
	f.Add(int64(1<<40), uint8(45), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, order, zero uint8) {
		n := 2 + int(order)%95
		_, a, x := lpSystem(seed, n)
		_, ra, rx := lpSystem(seed, n)
		if col := int(zero); col < n {
			for i := range a {
				a[i][col], ra[i][col] = 0, 0
			}
		}
		if msg := lpAgainstRef(a, x, ra, rx); msg != "" {
			t.Fatalf("n=%d seed=%d zero=%d: %s", n, seed, zero, msg)
		}
	})
}

// --- virus scan target ---

func TestUnmarkEqualsBytewise(t *testing.T) {
	words := []uint64{0, ^uint64(0), 0xEBEBEBEBEBEBEBEB, 0xEAEBECEAEBECEAEB, 0xECEBEAECEBEAECEB, 0xEB, 0xEB << 56, 0x6B6B6B6B6B6B6B6B, 0xEBFFEB00EB80EB7F}
	rng := rand.New(rand.NewSource(0xeb))
	for i := 0; i < 100000; i++ {
		w := rng.Uint64()
		if i%4 == 0 { // make the marker common
			w |= 0xEB << (8 * uint(rng.Intn(8)))
		}
		words = append(words, w)
	}
	for _, w := range words {
		if got, want := unmark(w), refUnmark(w); got != want {
			t.Fatalf("unmark(%#016x) = %#016x, bytewise %#016x", w, got, want)
		}
	}
}

func TestVirusTargetMarkerOnlyInPlants(t *testing.T) {
	v := NewVirusScan()
	byHead := map[string][]byte{} // a signature is 16 bytes or more, and those tell them apart
	for _, sig := range v.sigs {
		byHead[string(sig[:16])] = sig
	}
	for _, sizeKB := range []int{1, 2, 64, 256, 4096} {
		size := sizeKB * 1024
		most := size/(v.maxSig+1) - 1 // the largest count whose step exceeds maxSig
		for _, planted := range []int{0, 1, most} {
			p := virusParams{Seed: int64(sizeKB*7 + planted), SizeKB: sizeKB, Planted: planted}
			step := size / (planted + 1)
			target := make([]byte, size)
			v.fill(target, p.Seed, planted, step)
			// Every marker byte must sit inside a signature planted in its own slot.
			found := 0
			for i := 0; i < size; {
				j := bytes.IndexByte(target[i:], 0xEB)
				if j < 0 {
					break
				}
				i += j
				sig := byHead[string(target[i:min(i+16, size)])]
				if sig == nil || !bytes.HasPrefix(target[i:], sig) {
					t.Fatalf("%d KB, %d planted: marker at %d is not the start of a signature", sizeKB, planted, i)
				}
				if slot := i / step; slot >= planted || slot != (i+len(sig)-1)/step {
					t.Fatalf("%d KB, %d planted: signature at %d is not within one planted slot", sizeKB, planted, i)
				}
				found++
				i += len(sig)
			}
			if found != planted {
				t.Fatalf("%d KB: %d signatures in the target, %d planted", sizeKB, found, planted)
			}
			if _, err := v.Execute(Task{App: NameVirusScan, Params: encodeParams(p)}); err != nil {
				t.Fatalf("%d KB, %d planted: %v", sizeKB, planted, err)
			}
		}
		if _, err := v.Execute(Task{App: NameVirusScan, Params: encodeParams(virusParams{Seed: 1, SizeKB: sizeKB, Planted: most + 1})}); err == nil {
			t.Fatalf("%d KB: %d signatures accepted, one more than fit", sizeKB, most+1)
		}
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
		// Twelve systems through a fill cache of eight: the goroutines below
		// miss, evict and swap arrays with one another as well as hit.
		for i := 0; i < 12; i++ {
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

// --- hostile input ---

// affordable reports whether a 10 s fuzz pass can afford to execute the
// blob: false only for an instance that decodes, is in range in every
// field, and is large. Anything undecodable or out of range is cheap — it
// is rejected before any work — and is never skipped.
func affordable(app string, blob []byte) bool {
	switch app {
	case NameLinpack:
		var p linpackParams
		return decodeParams(blob, &p) != nil || p.N <= 64 || p.N > 2000
	case NameOCR:
		var p ocrParams
		return decodeParams(blob, &p) != nil || p.Chars <= 2000 || p.Chars > 100000
	case NameVirusScan:
		var p virusParams
		return decodeParams(blob, &p) != nil || p.SizeKB <= 64 || p.SizeKB > 4096 ||
			p.Planted < 0 || p.SizeKB*1024/(p.Planted+1) <= NewVirusScan().maxSig
	case NameChess:
		var p chessParams
		return decodeParams(blob, &p) != nil || p.Depth <= 0 || p.Depth > maxChessDepth ||
			p.Prefix < 0 || p.Prefix > maxChessPrefix || (p.Depth <= 3 && p.Prefix <= 64)
	}
	return true
}

// FuzzTaskParams: whatever app name and parameter blob come off the wire,
// Registry.Execute returns — an error with no Metrics beside it, or Metrics
// that a second execution reproduces exactly.
func FuzzTaskParams(f *testing.F) {
	for _, k := range kernelTasks() {
		if strings.Contains(k.label, "/") || strings.HasSuffix(k.label, "#0") {
			f.Add(k.task.App, k.task.Params)
		}
	}
	f.Add("Minesweeper", EncodeLinpackParams(1, 8))
	reg := NewRegistry()
	f.Fuzz(func(t *testing.T, app string, blob []byte) {
		if !affordable(app, blob) {
			t.Skip("in range but too large for a fuzz pass")
		}
		task := Task{App: app, Params: blob}
		m, err := reg.Execute(task)
		if err != nil {
			if m != (Metrics{}) {
				t.Fatalf("%s %x: error %v beside Metrics %+v", app, blob, err, m)
			}
			return
		}
		if again, err := reg.Execute(task); err != nil || again != m {
			t.Fatalf("%s %x: %+v, then %+v, %v", app, blob, m, again, err)
		}
	})
}

// --- allocations ---

// poolKeeps reports whether sync.Pool hands back what was put: under the
// race detector it drops a quarter of all Puts at random, and a count of
// steady-state allocations means nothing.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestKernelAllocs fences the heap objects one Execute allocates once the
// pools are warm: the Output string and what formatting it boxes, OCR's
// text — and no generator, scratch buffer or Linpack fill, on a fill-cache
// hit or (distinct seeds, orders 110-149) a miss.
func TestKernelAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one set of pool slots
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct {
		name  string
		tasks []Task
		max   float64
	}{
		// Measured 2.9, 10.7, 6.4, 1.0, 1.0. Each was one higher while the
		// decoded params struct escaped through decodeParams' %T, and before
		// that two higher again (the generator), OCR five, a Linpack miss four.
		{"virusscan", drawTasks(NewVirusScan(), rng, 16), 3.2},
		{"ocr", drawTasks(NewOCR(), rng, 16), 11.5},
		{"chess", drawTasks(NewChess(), rng, 16), 7},
		{"linpack hit", []Task{{App: NameLinpack, Params: EncodeLinpackParams(7, 128)}}, 1.2},
		{"linpack miss", drawTasks(NewLinpack(), rng, 256), 1.2},
	} {
		tasks := c.tasks
		next := 0
		run := func() {
			if _, err := reg.Execute(tasks[next%len(tasks)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		// Twice round, so the buffers in circulation — pooled, or the cached
		// fills a miss swaps with — have grown to the largest tasks.
		runs := max(len(tasks), 64)
		for i := 0; i < 2*runs; i++ {
			run()
		}
		// Not testing.AllocsPerRun, which rounds the average down: a mix of
		// clean (3) and infected (4) scans is 3.9, one stray object from 4.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if avg := float64(after.Mallocs-before.Mallocs) / float64(runs); avg > c.max {
			t.Errorf("%s: %.1f allocations per Execute, fence is %.1f", c.name, avg, c.max)
		} else {
			t.Logf("%s: %.1f allocations per Execute", c.name, avg)
		}
	}
}

// drawTasks draws n requests of one app.
func drawTasks(app App, rng *rand.Rand, n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = app.NewTask(rng, i)
	}
	return tasks
}

// --- benchmarks ---

var kernelSink Metrics

// BenchmarkKernels reports ns/op, B/op and allocs/op of one Execute per
// app over a fixed task mix (Linpack on a fill-cache hit and on the miss
// path), and of building the shared tables.
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
		run(c.bench, drawTasks(app, rng, 32))
	}
	run("linpack128", []Task{{App: NameLinpack, Method: "solve", Params: EncodeLinpackParams(7, 128)}})
	// The stream tcp-compute serves: orders 110-149, every seed distinct, so
	// every solve misses the fill cache and draws its system.
	run("linpack-mix", drawTasks(NewLinpack(), rng, 256))
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
