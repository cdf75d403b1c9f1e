package workload

import (
	"fmt"
	"math/rand"

	"rattrap/internal/host"
)

// ChessGame is the games benchmark: an Android port of a chess engine
// (CuckooChess in the paper). Each offloading request carries a game
// position; the engine searches for the best move with iterative-deepening
// alpha-beta. Requests are frequent and small — the "intensive network
// communication" workload class.
//
// The embedded engine is real: 0x88 board, full legal move generation
// (promotions included; castling and en passant omitted for brevity),
// material+mobility evaluation, and alpha-beta with capture-first move
// ordering. The modeled work scales the searched node count by
// chessOpsPerNode, representing the deeper search a production engine runs.
type Chess struct{}

// NewChess returns the ChessGame benchmark.
func NewChess() *Chess { return &Chess{} }

// Calibration constants (see DESIGN.md): Table II gives a 2.3 MB APK and
// ≈124 KB of per-request migrated data; the per-node scale makes a typical
// search cost ≈600 device-mops (≈2 s locally on the phone).
const (
	chessCodeSize    = 2300 * host.KB
	chessParamBytes  = 119 * host.KB
	chessResultBytes = 5200 // + interaction replies ≈ Table II's 7.6 KB/request
	// Interactive exchanges per request (game-state streaming between the
	// client UI and the engine) and their per-direction payload.
	chessRoundTrips    = 6
	chessInteractBytes = 400
	// chessOpsPerNode converts real searched nodes to modeled device mops
	// (≈500k device ops per real node: the production engine searches far
	// deeper than the embedded depth-3 instance, whose alpha-beta visits
	// ~1.2k nodes per position).
	chessOpsPerNode = 0.5
	// maxChessDepth bounds the search depth a request may ask for, and with
	// it the number of per-ply move buffers a board carries.
	maxChessDepth = 6
	// maxChessPrefix bounds the random game played before the search. The
	// prefix runs before anything can time the request out, and a bare-kings
	// game never runs out of legal moves; devices draw 6–25.
	maxChessPrefix = 1024
)

type chessParams struct {
	Seed   int64
	Prefix int // random half-moves to reach the position
	Depth  int // search depth
}

func (c *Chess) Name() string         { return NameChess }
func (c *Chess) CodeSize() host.Bytes { return chessCodeSize }

// NewTask draws a request: a middlegame position (6–25 random plies from
// the initial position) searched at depth 3.
func (c *Chess) NewTask(rng *rand.Rand, seq int) Task {
	p := chessParams{Seed: rng.Int63(), Prefix: 6 + rng.Intn(20), Depth: 3}
	scale := 0.8 + rng.Float64()*0.4
	return Task{
		App:           NameChess,
		Method:        "bestMove",
		Seq:           seq,
		Params:        encodeParams(p),
		ParamBytes:    host.Bytes(float64(chessParamBytes) * scale),
		RoundTrips:    chessRoundTrips,
		InteractBytes: chessInteractBytes,
	}
}

// Execute searches the position and returns the best move.
func (c *Chess) Execute(t Task) (Metrics, error) {
	var p chessParams
	if err := decodeParams(t.Params, &p); err != nil {
		return Metrics{}, fmt.Errorf("chess: %w", err)
	}
	if p.Depth <= 0 || p.Depth > maxChessDepth {
		return Metrics{}, fmt.Errorf("chess: depth %d out of range", p.Depth)
	}
	if p.Prefix < 0 || p.Prefix > maxChessPrefix {
		return Metrics{}, fmt.Errorf("chess: prefix %d out of range", p.Prefix)
	}
	b := newBoard()
	rng := seededRand(p.Seed)
	defer randPool.Put(rng)
	for i := 0; i < p.Prefix; i++ {
		moves := b.legalMoves(0)
		if len(moves) == 0 {
			break
		}
		b.make(moves[rng.Intn(len(moves))])
	}
	best, score, nodes := b.search(p.Depth)
	out := fmt.Sprintf("bestmove=%s score=%d nodes=%d", best, score, nodes)
	return Metrics{
		Work:        host.Work(float64(nodes) * chessOpsPerNode),
		ResultBytes: chessResultBytes,
		RealOps:     nodes,
		Output:      out,
	}, nil
}

// --- engine ---

// Piece codes; white positive, black negative.
const (
	empty int8 = 0
	wp    int8 = 1
	wn    int8 = 2
	wb    int8 = 3
	wr    int8 = 4
	wq    int8 = 5
	wk    int8 = 6
)

var pieceValue = [7]int{0, 100, 320, 330, 500, 900, 20000}

var knightOffsets = [8]int{33, 31, 18, 14, -33, -31, -18, -14}
var kingOffsets = [8]int{1, -1, 16, -16, 15, -15, 17, -17}
var bishopDirs = [4]int{15, -15, 17, -17}
var rookDirs = [4]int{1, -1, 16, -16}
var queenDirs = [8]int{15, -15, 17, -17, 1, -1, 16, -16} // bishop rays, then rook rays

// kingLine[to-from+119] is the unit step of the queen ray that leads from
// one square to another, 0 when they share none: a 0x88 difference
// identifies the ray uniquely.
var kingLine = func() (t [239]int8) {
	for _, d := range queenDirs {
		for n := 1; n < 8; n++ {
			t[n*d+119] = int8(d)
		}
	}
	return t
}()

// squareScore[p+wk][i] is what piece p on 0x88 square i adds to white's
// score: material plus a centrality bonus (distance from the board
// center, worth a few centipawns), negated for black. The empty row is zero.
var squareScore = func() (t [2*wk + 1][128]int32) {
	for i := 0; i < 128; i++ {
		f, r := i%16, i/16
		center := int32(6-abs(2*f-7)/2-abs(2*r-7)/2) * 3
		for p := wp; p <= wk; p++ {
			t[wk+p][i] = int32(pieceValue[p]) + center
			t[wk-p][i] = -t[wk+p][i]
		}
	}
	return t
}()

type move struct {
	from, to int
	captured int8
	promo    int8
}

func sqName(i int) string {
	return fmt.Sprintf("%c%d", 'a'+i%16, i/16+1)
}

func (m move) String() string {
	s := sqName(m.from) + sqName(m.to)
	if m.promo != empty {
		s += "q"
	}
	return s
}

type board struct {
	sq    [128]int8
	white bool // side to move
	nodes int64
	// king holds the white and black king squares (see kingIndex), kept up
	// to date by make/unmake; -1 while that king is off the board.
	king [2]int
	// score is the squareScore sum over the board (white's view), kept up
	// to date by make/unmake; the initial position is 0 by symmetry.
	score int32
	// moveBufs[k] backs the move list generated at ply k, so a search
	// reuses one buffer per ply instead of allocating per node. A position
	// with more pseudo-legal moves than fit spills to the heap for that
	// node only.
	moveBufs [maxChessDepth + 1][64]move
}

// newBoard sets up the initial position.
func newBoard() *board {
	b := &board{white: true, king: [2]int{4, 7*16 + 4}}
	back := []int8{wr, wn, wb, wq, wk, wb, wn, wr}
	for f := 0; f < 8; f++ {
		b.sq[f] = back[f]
		b.sq[16+f] = wp
		b.sq[6*16+f] = -wp
		b.sq[7*16+f] = -back[f]
	}
	return b
}

func onBoard(i int) bool { return i&0x88 == 0 }

func (b *board) mySign() int8 {
	if b.white {
		return 1
	}
	return -1
}

// attacked reports whether square i is attacked by the side with the given
// sign (+1 white, -1 black).
func (b *board) attacked(i int, bySign int8) bool {
	// Pawns.
	var pawnFrom [2]int
	if bySign > 0 {
		pawnFrom = [2]int{i - 15, i - 17}
	} else {
		pawnFrom = [2]int{i + 15, i + 17}
	}
	for _, f := range pawnFrom {
		if onBoard(f) && b.sq[f] == bySign*wp {
			return true
		}
	}
	// Knights.
	for _, o := range knightOffsets {
		f := i + o
		if onBoard(f) && b.sq[f] == bySign*wn {
			return true
		}
	}
	// Kings.
	for _, o := range kingOffsets {
		f := i + o
		if onBoard(f) && b.sq[f] == bySign*wk {
			return true
		}
	}
	// Sliders.
	for _, d := range bishopDirs {
		for f := i + d; onBoard(f); f += d {
			p := b.sq[f]
			if p == empty {
				continue
			}
			if p == bySign*wb || p == bySign*wq {
				return true
			}
			break
		}
	}
	for _, d := range rookDirs {
		for f := i + d; onBoard(f); f += d {
			p := b.sq[f]
			if p == empty {
				continue
			}
			if p == bySign*wr || p == bySign*wq {
				return true
			}
			break
		}
	}
	return false
}

// kingIndex maps a side's sign (or one of its pieces) to its slot in
// board.king.
func kingIndex(sign int8) int {
	if sign > 0 {
		return 0
	}
	return 1
}

// inCheck reports whether the side with the given sign is in check.
func (b *board) inCheck(sign int8) bool {
	k := b.king[kingIndex(sign)]
	if k < 0 {
		return true // king captured in a pseudo-legal line; treat as illegal
	}
	return b.attacked(k, -sign)
}

// pseudoMoves appends the pseudo-legal moves of the side to move to moves.
func (b *board) pseudoMoves(moves []move) []move {
	sign := b.mySign()
	step := int(sign)
	lastRank, startRank := 7, 1
	if sign < 0 {
		lastRank, startRank = 0, 6
	}
	for r := 0; r < 8; r++ {
		for i := r * 16; i < r*16+8; i++ {
			p := b.sq[i] * sign
			if p <= 0 { // empty or the opponent's
				continue
			}
			switch p {
			case wp:
				promo := empty
				if r+step == lastRank {
					promo = sign * wq
				}
				fwd := i + 16*step
				if onBoard(fwd) && b.sq[fwd] == empty {
					moves = append(moves, move{from: i, to: fwd, promo: promo})
					if fwd2 := i + 32*step; r == startRank && b.sq[fwd2] == empty {
						moves = append(moves, move{from: i, to: fwd2})
					}
				}
				for _, d := range [2]int{15, 17} {
					c := i + d*step
					if onBoard(c) && b.sq[c]*sign < 0 {
						moves = append(moves, move{from: i, to: c, captured: b.sq[c], promo: promo})
					}
				}
			case wn:
				moves = b.stepMoves(moves, i, knightOffsets[:], sign)
			case wk:
				moves = b.stepMoves(moves, i, kingOffsets[:], sign)
			case wb:
				moves = b.slideMoves(moves, i, bishopDirs[:], sign)
			case wr:
				moves = b.slideMoves(moves, i, rookDirs[:], sign)
			case wq:
				moves = b.slideMoves(moves, i, queenDirs[:], sign)
			}
		}
	}
	return moves
}

// stepMoves appends the knight or king moves from square i.
func (b *board) stepMoves(moves []move, i int, offsets []int, sign int8) []move {
	for _, o := range offsets {
		to := i + o
		if onBoard(to) && b.sq[to]*sign <= 0 {
			moves = append(moves, move{from: i, to: to, captured: b.sq[to]})
		}
	}
	return moves
}

// slideMoves appends the slider moves from square i along dirs.
func (b *board) slideMoves(moves []move, i int, dirs []int, sign int8) []move {
	for _, d := range dirs {
		for to := i + d; onBoard(to); to += d {
			target := b.sq[to]
			if target*sign > 0 {
				break
			}
			moves = append(moves, move{from: i, to: to, captured: target})
			if target != empty {
				break
			}
		}
	}
	return moves
}

// isKing reports whether p is a king of either side.
func isKing(p int8) bool { return p == wk || p == -wk }

// make applies a move.
func (b *board) make(m move) {
	p := b.sq[m.from]
	b.score -= squareScore[p+wk][m.from] + squareScore[m.captured+wk][m.to]
	if isKing(p) {
		b.king[kingIndex(p)] = m.to
	}
	if isKing(m.captured) {
		b.king[kingIndex(m.captured)] = -1
	}
	if m.promo != empty {
		p = m.promo
	}
	b.score += squareScore[p+wk][m.to]
	b.sq[m.to] = p
	b.sq[m.from] = empty
	b.white = !b.white
}

// unmake reverses a move made by make.
func (b *board) unmake(m move) {
	b.white = !b.white
	p := b.sq[m.to]
	b.score -= squareScore[p+wk][m.to]
	if isKing(p) {
		b.king[kingIndex(p)] = m.from
	}
	if isKing(m.captured) {
		b.king[kingIndex(m.captured)] = m.to
	}
	if m.promo != empty {
		p = b.mySign() * wp
	}
	b.score += squareScore[p+wk][m.from] + squareScore[m.captured+wk][m.to]
	b.sq[m.from] = p
	b.sq[m.to] = m.captured
}

// shields reports whether the piece on from is all that stands between the
// king of the given sign on k and an enemy slider: the only way a move by
// anything but the king can expose a king that is not in check now.
func (b *board) shields(from, k int, sign int8) bool {
	d := int(kingLine[from-k+119])
	if d == 0 {
		return false
	}
	for i := k + d; i != from; i += d {
		if b.sq[i] != empty {
			return false
		}
	}
	slider := -sign * wb
	if d == 1 || d == -1 || d == 16 || d == -16 {
		slider = -sign * wr
	}
	for i := from + d; onBoard(i); i += d {
		if p := b.sq[i]; p != empty {
			return p == slider || p == -sign*wq
		}
	}
	return false
}

// legalMoves returns the legal moves of the side to move: the
// pseudo-legal ones, in generation order, minus those that leave the mover
// in check. Out of check, only a king move or a move by a shielding piece
// can do that, so only those (and every move when in check) are tried on
// the board. The list lives in the board's buffer for the given ply and is
// valid until the next call with that ply.
func (b *board) legalMoves(ply int) []move {
	sign := b.mySign()
	moves := b.pseudoMoves(b.moveBufs[ply][:0])
	k := b.king[kingIndex(sign)]
	safe := k >= 0 && !b.attacked(k, -sign)
	legal := moves[:0]
	for _, m := range moves {
		if !safe || m.from == k || b.shields(m.from, k, sign) {
			b.make(m)
			check := b.inCheck(sign)
			b.unmake(m)
			if check {
				continue
			}
		}
		legal = append(legal, m)
	}
	return legal
}

// eval scores the position from the side to move's perspective:
// material plus a small centrality bonus.
func (b *board) eval() int {
	return int(b.score) * int(b.mySign())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

const mateScore = 100000

// negamax is alpha-beta search counting visited nodes.
func (b *board) negamax(depth, alpha, beta int) int {
	b.nodes++
	if depth == 0 {
		return b.eval()
	}
	moves := b.legalMoves(depth) // depth strictly falls along a line: one buffer per ply
	if len(moves) == 0 {
		if b.inCheck(b.mySign()) {
			return -mateScore - depth // prefer faster mates
		}
		return 0 // stalemate
	}
	orderMoves(moves)
	for _, m := range moves {
		b.make(m)
		score := -b.negamax(depth-1, -beta, -alpha)
		b.unmake(m)
		if score >= beta {
			return beta
		}
		if score > alpha {
			alpha = score
		}
	}
	return alpha
}

// orderMoves puts captures first, most valuable victim first (MVV).
func orderMoves(moves []move) {
	// Insertion sort by capture value descending: move lists are short.
	for i := 1; i < len(moves); i++ {
		m := moves[i]
		v := captureValue(m)
		j := i - 1
		for j >= 0 && captureValue(moves[j]) < v {
			moves[j+1] = moves[j]
			j--
		}
		moves[j+1] = m
	}
}

func captureValue(m move) int {
	if m.captured == empty {
		return 0
	}
	c := m.captured
	if c < 0 {
		c = -c
	}
	return pieceValue[c]
}

// search returns the best move at the given depth, its score, and the
// number of nodes visited.
func (b *board) search(depth int) (move, int, int64) {
	b.nodes = 0
	moves := b.legalMoves(depth)
	if len(moves) == 0 {
		return move{}, -mateScore, 1
	}
	orderMoves(moves)
	best := moves[0]
	alpha := -2 * mateScore
	for _, m := range moves {
		b.make(m)
		score := -b.negamax(depth-1, -2*mateScore, -alpha)
		b.unmake(m)
		if score > alpha {
			alpha = score
			best = m
		}
	}
	return best, alpha, b.nodes
}
