package workload

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rattrap/internal/host"
)

func TestRegistryResolvesAllApps(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{NameOCR, NameChess, NameVirusScan, NameLinpack} {
		a, err := r.Get(name)
		if err != nil || a.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := r.Get("Minesweeper"); err == nil {
		t.Fatal("unknown app resolved")
	}
}

func TestAllAppsExecuteAndVerify(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(11))
	for _, app := range Apps() {
		for seq := 0; seq < 3; seq++ {
			task := app.NewTask(rng, seq)
			m, err := r.Execute(task)
			if err != nil {
				t.Fatalf("%s: %v", app.Name(), err)
			}
			if m.Work <= 0 {
				t.Errorf("%s: non-positive work %v", app.Name(), m.Work)
			}
			if m.RealOps <= 0 {
				t.Errorf("%s: no real ops", app.Name())
			}
			if m.ResultBytes <= 0 {
				t.Errorf("%s: no result bytes", app.Name())
			}
			if m.Output == "" {
				t.Errorf("%s: empty output", app.Name())
			}
		}
	}
}

func TestExecutionDeterministicAcrossSites(t *testing.T) {
	// The same task must produce identical output wherever it executes —
	// the property the App Warehouse's code cache relies on.
	rng := rand.New(rand.NewSource(5))
	for _, app := range Apps() {
		task := app.NewTask(rng, 0)
		device, cloud := NewRegistry(), NewRegistry() // two independent sites
		m1, err1 := device.Execute(task)
		m2, err2 := cloud.Execute(task)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", app.Name(), err1, err2)
		}
		if m1.Output != m2.Output || m1.Work != m2.Work || m1.RealOps != m2.RealOps {
			t.Fatalf("%s: divergent execution: %+v vs %+v", app.Name(), m1, m2)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	// §III's characterization: Linpack is pure compute (no I/O), VirusScan
	// is the most I/O-heavy, Chess has the smallest per-request compute,
	// OCR and VirusScan carry files.
	rng := rand.New(rand.NewSource(42))
	r := NewRegistry()
	avg := make(map[string]Metrics)
	files := make(map[string]host.Bytes)
	const n = 12
	for _, app := range Apps() {
		var sum Metrics
		for i := 0; i < n; i++ {
			task := app.NewTask(rng, i)
			m, err := r.Execute(task)
			if err != nil {
				t.Fatal(err)
			}
			sum.Work += m.Work
			sum.IORead += m.IORead
			sum.IOWrite += m.IOWrite
			files[app.Name()] += task.FileBytes
		}
		sum.Work /= n
		avg[app.Name()] = sum
	}
	if avg[NameLinpack].IORead != 0 || avg[NameLinpack].IOWrite != 0 {
		t.Error("Linpack should do no offloading I/O")
	}
	if files[NameLinpack] != 0 || files[NameChess] != 0 {
		t.Error("Linpack/Chess should transfer no files")
	}
	if avg[NameVirusScan].IORead <= avg[NameOCR].IORead {
		t.Error("VirusScan should be the most I/O-bound workload")
	}
	if files[NameOCR] == 0 || files[NameVirusScan] == 0 {
		t.Error("OCR/VirusScan should transfer files")
	}
	for _, other := range []string{NameOCR, NameVirusScan, NameLinpack} {
		if avg[NameChess].Work >= avg[other].Work {
			t.Errorf("Chess compute (%v) should be smaller than %s (%v)",
				avg[NameChess].Work, other, avg[other].Work)
		}
	}
}

func TestCalibratedWorkMagnitudes(t *testing.T) {
	// Mean modeled work should be in the calibrated band (device-seconds
	// at 300 mops/s): Chess ≈2s, OCR ≈9s, VirusScan ≈6s, Linpack ≈10s.
	rng := rand.New(rand.NewSource(9))
	r := NewRegistry()
	bands := map[string][2]float64{ // [min,max] mops
		NameChess:     {150, 2000},
		NameOCR:       {1700, 4000},
		NameVirusScan: {1100, 2600},
		NameLinpack:   {2000, 4500},
	}
	for _, app := range Apps() {
		var sum float64
		const n = 15
		for i := 0; i < n; i++ {
			m, err := r.Execute(app.NewTask(rng, i))
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(m.Work)
		}
		mean := sum / n
		b := bands[app.Name()]
		if mean < b[0] || mean > b[1] {
			t.Errorf("%s mean work = %.0f mops, want in [%v, %v]", app.Name(), mean, b[0], b[1])
		}
	}
}

func TestTableIICodeSizes(t *testing.T) {
	// Derived from Table II: VM upload − Rattrap upload ≈ 4 extra code
	// pushes (5 VMs vs 1 warehouse copy).
	want := map[string]host.Bytes{
		NameOCR:       1400 * host.KB,
		NameChess:     2300 * host.KB,
		NameVirusScan: 1730 * host.KB,
		NameLinpack:   152 * host.KB,
	}
	for _, app := range Apps() {
		if app.CodeSize() != want[app.Name()] {
			t.Errorf("%s code size = %d KB, want %d KB",
				app.Name(), app.CodeSize()/host.KB, want[app.Name()]/host.KB)
		}
	}
}

// --- chess engine ---

func TestChessInitialPosition(t *testing.T) {
	b := newBoard()
	moves := b.legalMoves(0)
	if len(moves) != 20 {
		t.Fatalf("initial position has %d legal moves, want 20", len(moves))
	}
	if b.inCheck(1) || b.inCheck(-1) {
		t.Fatal("initial position reports check")
	}
	if b.eval() != 0 {
		t.Fatalf("initial eval = %d, want 0 (symmetric)", b.eval())
	}
}

func TestChessPerft2(t *testing.T) {
	// Without castling/en passant, depth-2 node count from the start is
	// exactly 20*20 = 400 (no captures or checks possible yet).
	b := newBoard()
	count := 0
	for _, m := range b.legalMoves(1) {
		b.make(m)
		count += len(b.legalMoves(0))
		b.unmake(m)
	}
	if count != 400 {
		t.Fatalf("perft(2) = %d, want 400", count)
	}
}

func TestChessMakeUnmakeRoundTrip(t *testing.T) {
	b := newBoard()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 40; step++ {
		before := b.sq
		side := b.white
		moves := b.legalMoves(0)
		if len(moves) == 0 {
			break
		}
		m := moves[rng.Intn(len(moves))]
		b.make(m)
		b.unmake(m)
		if b.sq != before || b.white != side {
			t.Fatalf("make/unmake not inverse at step %d (move %s)", step, m)
		}
		b.make(m) // advance for real
	}
}

func TestChessFindsHangingQueen(t *testing.T) {
	// Place a hanging black queen; a depth-2 search must capture it.
	b := newBoard()
	// Clear a path: put the black queen on d4 (rank 3, file 3 -> 0x33),
	// reachable by the white knight after Nb1-c3? Simpler: white rook on
	// d1 with an open file and black queen on d4.
	var empty [128]int8
	b.sq = empty
	b.white = true
	b.sq[4] = wk       // white king e1
	b.sq[7*16+4] = -wk // black king e8
	b.sq[3] = wr       // white rook d1
	b.sq[3*16+3] = -wq // black queen d4
	b.track()
	best, score, nodes := b.search(2)
	if got := best.String(); got != "d1d4" {
		t.Fatalf("best move = %s (score %d), want d1d4 capturing the queen", got, score)
	}
	if nodes <= 0 {
		t.Fatal("search visited no nodes")
	}
}

func TestChessPromotion(t *testing.T) {
	b := &board{white: true}
	b.sq[4] = wk
	b.sq[7*16+0] = -wk // black king a8... keep far from promotion square h8
	b.sq[6*16+7] = wp  // white pawn h7
	b.track()
	found := false
	for _, m := range b.legalMoves(0) {
		if m.promo == wq && m.to == 7*16+7 {
			found = true
			b.make(m)
			if b.sq[7*16+7] != wq {
				t.Fatal("promotion did not place a queen")
			}
			b.unmake(m)
			if b.sq[6*16+7] != wp {
				t.Fatal("unmake did not restore the pawn")
			}
		}
	}
	if !found {
		t.Fatal("promotion move not generated")
	}
}

func TestChessCheckmateDetection(t *testing.T) {
	// Back-rank mate: black king h8, white rook a8, white king g6 guards.
	b := &board{white: false}
	b.sq[7*16+7] = -wk // h8
	b.sq[7*16+0] = wr  // a8
	b.sq[5*16+6] = wk  // g6
	b.track()
	if len(b.legalMoves(0)) != 0 {
		t.Fatalf("mated side has legal moves: %v", b.legalMoves(0))
	}
	if !b.inCheck(-1) {
		t.Fatal("mated king not in check")
	}
}

// Property: search never returns an illegal move, for random positions.
func TestPropertyChessSearchReturnsLegalMove(t *testing.T) {
	f := func(seed int64, prefix uint8) bool {
		b := newBoard()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(prefix%30); i++ {
			moves := b.legalMoves(0)
			if len(moves) == 0 {
				return true
			}
			b.make(moves[rng.Intn(len(moves))])
		}
		if len(b.legalMoves(0)) == 0 {
			return true
		}
		best, _, _ := b.search(2)
		for _, m := range b.legalMoves(0) {
			if m == best {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- linpack ---

func TestLinpackSolvesAndChecksResidual(t *testing.T) {
	l := NewLinpack()
	rng := rand.New(rand.NewSource(2))
	m, err := l.Execute(l.NewTask(rng, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Output, "residual=") {
		t.Fatalf("output %q lacks residual", m.Output)
	}
}

func TestLinpackFlopCount(t *testing.T) {
	l := NewLinpack()
	p := linpackParams{Seed: 1, N: 100}
	task := Task{App: NameLinpack, Params: encodeParams(p)}
	m, err := l.Execute(task)
	if err != nil {
		t.Fatal(err)
	}
	nf := 100.0
	want := int64(2.0/3.0*nf*nf*nf + 2*nf*nf)
	if m.RealOps != want {
		t.Fatalf("flops = %d, want %d", m.RealOps, want)
	}
}

func TestLinpackRejectsBadOrder(t *testing.T) {
	l := NewLinpack()
	task := Task{App: NameLinpack, Params: encodeParams(linpackParams{Seed: 1, N: 0})}
	if _, err := l.Execute(task); err == nil {
		t.Fatal("order 0 accepted")
	}
}

// TestParamsRejectNonFlatBlob: a parameter blob that does not open with
// the flat format's magic byte — the opening bytes of a gob stream, an
// empty blob, the wire codec's magic — is a typed error from every app,
// and a flat blob with an unknown version or trailing bytes is rejected
// too. Nothing is handed to a second decoder.
func TestParamsRejectNonFlatBlob(t *testing.T) {
	nonFlat := map[string][]byte{
		"gob opening": {0x25, 0xff, 0x81, 0x03, 0x01, 0x01, 0x0d, 'l', 'i', 'n', 'p', 'a', 'c', 'k'},
		"empty":       nil,
		"magic only":  {paramMagic},
		"wire magic":  {0xB1, paramVersion, 0x02, 0x10},
	}
	for _, app := range Apps() {
		for name, blob := range nonFlat {
			_, err := app.Execute(Task{App: app.Name(), Params: blob})
			if !errors.Is(err, ErrParamFormat) {
				t.Errorf("%s, %s blob: err = %v, want ErrParamFormat", app.Name(), name, err)
			}
		}
	}
	good := encodeParams(linpackParams{Seed: 1, N: 8})
	var p linpackParams
	if err := decodeParams(good, &p); err != nil || p.N != 8 {
		t.Fatalf("flat blob: %+v, %v", p, err)
	}
	badVersion := append([]byte(nil), good...)
	badVersion[1] = paramVersion + 1
	if err := decodeParams(badVersion, &p); err == nil || errors.Is(err, ErrParamFormat) {
		t.Fatalf("unknown param version: err = %v, want a version error", err)
	}
	if err := decodeParams(append(good, 0x00), &p); err == nil {
		t.Fatal("trailing param bytes accepted")
	}
}

// --- virus scan ---

func TestVirusScanFindsExactlyPlanted(t *testing.T) {
	v := NewVirusScan()
	for _, planted := range []int{0, 1, 3, 6} {
		p := virusParams{Seed: int64(100 + planted), SizeKB: 128, Planted: planted}
		m, err := v.Execute(Task{App: NameVirusScan, Params: encodeParams(p)})
		if err != nil {
			t.Fatalf("planted=%d: %v", planted, err)
		}
		if planted == 0 && !strings.Contains(m.Output, "clean") {
			t.Errorf("clean target reported %q", m.Output)
		}
		if planted > 0 && !strings.Contains(m.Output, "INFECTED") {
			t.Errorf("infected target reported %q", m.Output)
		}
	}
}

func TestAhoCorasickAgainstNaive(t *testing.T) {
	pats := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	ac := newAhoCorasick(pats)
	text := []byte("ushers and his heroes; she sells hers")
	want := naiveCount(pats, text)
	if got := ac.scan(text); got != want {
		t.Fatalf("AC found %d, naive found %d", got, want)
	}
}

func TestAhoCorasickOverlappingPatterns(t *testing.T) {
	ac := newAhoCorasick([][]byte{[]byte("aa"), []byte("aaa")})
	// "aaaa" contains "aa" at 0,1,2 and "aaa" at 0,1 -> 5 matches.
	if got := ac.scan([]byte("aaaa")); got != 5 {
		t.Fatalf("scan = %d, want 5", got)
	}
}

// Property: Aho-Corasick matches the naive count on random inputs.
func TestPropertyAhoCorasickMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		npat := 1 + rng.Intn(5)
		pats := make([][]byte, npat)
		for i := range pats {
			p := make([]byte, 1+rng.Intn(4))
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			pats[i] = p
		}
		// Dedup: duplicate patterns double-count in both implementations,
		// but keep the comparison honest by allowing them.
		text := make([]byte, rng.Intn(200))
		for i := range text {
			text[i] = byte('a' + rng.Intn(3))
		}
		want := 0
		for _, p := range pats {
			for i := 0; i+len(p) <= len(text); i++ {
				if string(text[i:i+len(p)]) == string(p) {
					want++
				}
			}
		}
		return newAhoCorasick(pats).scan(text) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- ocr ---

func TestOCRRoundTrip(t *testing.T) {
	o := NewOCR()
	rng := rand.New(rand.NewSource(8))
	m, err := o.Execute(o.NewTask(rng, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Output, "chars=") {
		t.Fatalf("output = %q", m.Output)
	}
}

func TestOCRRecognizesKnownText(t *testing.T) {
	o := NewOCR()
	text := "CLOUD ANDROID CONTAINER 42"
	got, ops := recognizeStrip(o, renderText(o, text))
	if got != text {
		t.Fatalf("recognized %q, want %q", got, text)
	}
	wantOps := int64(len(text)) * int64(len(ocrAlphabet)) * glyphPixels
	if ops != wantOps {
		t.Fatalf("ops = %d, want %d", ops, wantOps)
	}
}

func TestOCRFontGlyphsDistinct(t *testing.T) {
	o := NewOCR()
	for i := range o.masks {
		for j := i + 1; j < len(o.masks); j++ {
			if o.masks[i] == o.masks[j] {
				t.Fatalf("glyphs %q and %q identical", ocrAlphabet[i], ocrAlphabet[j])
			}
		}
	}
}

// Property: OCR round-trips any text over its alphabet.
func TestPropertyOCRRoundTripsAlphabet(t *testing.T) {
	o := NewOCR()
	f := func(idx []uint8) bool {
		if len(idx) == 0 || len(idx) > 200 {
			return true
		}
		var b strings.Builder
		for _, i := range idx {
			b.WriteByte(ocrAlphabet[int(i)%len(ocrAlphabet)])
		}
		text := b.String()
		got, _ := recognizeStrip(o, renderText(o, text))
		return got == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
