// Package workload implements the four benchmark applications of §III-A as
// real algorithms with deterministic work metering:
//
//   - OCR (image tools): glyph template matching over a rendered bitmap,
//     standing in for Tesseract — compute-intensive with file transfer;
//   - ChessGame (games): an alpha-beta chess engine in the spirit of
//     CuckooChess — small, chatty, interaction-heavy requests;
//   - VirusScan (anti-virus): Aho-Corasick multi-pattern search over a
//     signature database — more I/O than the other benchmarks;
//   - Linpack (mathematical tools): LU decomposition with partial
//     pivoting — pure computation.
//
// Each Execute call really runs the algorithm on a scaled-down instance and
// verifies its own output; the counted real operations are multiplied by a
// documented per-app OpScale to obtain the modeled device-scale work
// (host.Work), and wire sizes are modeled at paper scale (Table II /
// Figure 3). Instances are derived entirely from the task parameters, so a
// task executes identically on the device, in a VM, or in a container —
// the property the App Warehouse's code cache relies on.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"rattrap/internal/host"
)

// Task is one offloadable invocation of an app method.
type Task struct {
	// App and Method name the code to run, resolved through the registry
	// (the analog of the Java-reflection dispatch in the paper's client).
	App    string
	Method string
	// Seq is the request's sequence number at its device.
	Seq int
	// Params is the real, decodable parameter blob.
	Params []byte
	// ParamBytes is the modeled wire size of parameters + control
	// metadata at paper scale.
	ParamBytes host.Bytes
	// FileBytes is the modeled size of input files that accompany the
	// request (OCR images, VirusScan targets); zero for file-less apps.
	FileBytes host.Bytes
	// RoundTrips is the number of mid-execution client↔cloud exchanges
	// (games "interact with user continually"); zero for batch apps.
	RoundTrips int
	// InteractBytes is the payload of each such exchange, per direction.
	InteractBytes host.Bytes

	// pre carries an ahead-of-time execution of this task (see
	// Precomputed). Unexported: it is an in-process optimization handle,
	// never part of the task's wire or cache identity.
	pre *Precomputed
}

// Precomputed is the outcome of running a task ahead of its scheduled
// execution. Apps are deterministic in the task parameters ("a task
// executes identically on the device, in a VM, or in a container"), so a
// result computed early — e.g. by the realtime server on the request's
// worker goroutine, outside the serialized engine — is byte-for-byte the
// result the runtime would have produced.
type Precomputed struct {
	Metrics Metrics
	Err     error
}

// SetPrecomputed attaches an ahead-of-time execution outcome. A registry
// executing the task then returns it instead of running the app again.
func (t *Task) SetPrecomputed(p *Precomputed) { t.pre = p }

// Precomputed returns the attached outcome, nil when there is none.
func (t Task) Precomputed() *Precomputed { return t.pre }

// UploadBytes is the modeled size of everything the request pushes to the
// cloud except mobile code.
func (t Task) UploadBytes() host.Bytes { return t.ParamBytes + t.FileBytes }

// Metrics describes what executing a task consumed and produced.
type Metrics struct {
	// Work is the modeled device-scale computation.
	Work host.Work
	// IORead/IOWrite are modeled offloading-I/O volumes (reads of
	// transferred files and databases, writes of staged inputs).
	IORead  host.Bytes
	IOWrite host.Bytes
	// ResultBytes is the modeled size of the reply payload.
	ResultBytes host.Bytes
	// RealOps counts operations the real scaled-down instance performed.
	RealOps int64
	// Output is the human-checkable result of the real computation.
	Output string
}

// App is one benchmark application.
type App interface {
	// Name is the app identifier ("OCR", "ChessGame", ...).
	Name() string
	// CodeSize is the modeled APK size pushed on first offload.
	CodeSize() host.Bytes
	// NewTask draws the seq-th request for this app from rng.
	NewTask(rng *rand.Rand, seq int) Task
	// Execute runs the task for real and returns its metrics. It must be
	// deterministic in the task parameters.
	Execute(t Task) (Metrics, error)
}

// Names of the four benchmark apps.
const (
	NameOCR       = "OCR"
	NameChess     = "ChessGame"
	NameVirusScan = "VirusScan"
	NameLinpack   = "Linpack"
)

// Apps returns all four benchmarks in the paper's order. OCR and VirusScan
// carry immutable tables (font, signature automaton) that are built once
// per process and shared by every caller; every app is safe for concurrent
// Execute.
func Apps() []App {
	return []App{NewOCR(), NewChess(), NewVirusScan(), NewLinpack()}
}

// ByName returns the named benchmark.
func ByName(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown app %q", name)
}

// Registry resolves app names to instances. It is the cloud-side
// "reflection" table mapping offloaded class names to code.
type Registry struct {
	apps map[string]App
}

// NewRegistry returns a registry over the four benchmarks.
func NewRegistry() *Registry {
	r := &Registry{apps: make(map[string]App)}
	for _, a := range Apps() {
		r.apps[a.Name()] = a
	}
	return r
}

// Get resolves an app by name.
func (r *Registry) Get(name string) (App, error) {
	a, ok := r.apps[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown app %q", name)
	}
	return a, nil
}

// Execute dispatches a task to its app. A task carrying a Precomputed
// outcome returns it directly — determinism makes the two
// indistinguishable, and the short-circuit lets callers hoist the real
// computation out of serialized sections.
func (r *Registry) Execute(t Task) (Metrics, error) {
	if p := t.pre; p != nil {
		return p.Metrics, p.Err
	}
	a, err := r.Get(t.App)
	if err != nil {
		return Metrics{}, err
	}
	return a.Execute(t)
}

// prng is a pooled generator: an Execute reseeds one instead of allocating
// a 4.9 KB source per request. Seeding gives the stream of
// rand.New(rand.NewSource(seed)); src is the Rand's own source, for loops
// that draw straight off it.
type prng struct {
	*rand.Rand
	src rngSource
}

var randPool = sync.Pool{New: func() any {
	r := new(prng)
	r.Rand = rand.New(&r.src)
	return r
}}

// seededRand takes a generator from randPool and seeds it; the caller puts
// it back.
func seededRand(seed int64) *prng {
	r := randPool.Get().(*prng)
	r.Seed(seed)
	return r
}

// Flat parameter codec — the same idea as the wire codec one layer down:
// a magic byte, a version, then the struct's fields as zigzag varints in
// declaration order. Decoding allocates nothing. A blob that does not open
// with paramMagic is rejected with a typed error.
const (
	paramMagic   = 0xB2 // distinct from the wire codec's 0xB1
	paramVersion = 1
)

// ErrParamFormat reports a parameter blob that does not open with the flat
// format's magic byte. Matches with errors.Is.
var ErrParamFormat = errors.New("workload: param blob is not in the flat format")

func appendParamZig(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// encodeParams encodes an app parameter struct in the flat format. An
// unknown struct type is a programming error.
func encodeParams(v any) []byte {
	b := make([]byte, 2, 24)
	b[0], b[1] = paramMagic, paramVersion
	switch p := v.(type) {
	case linpackParams:
		b = appendParamZig(b, p.Seed)
		b = appendParamZig(b, int64(p.N))
	case chessParams:
		b = appendParamZig(b, p.Seed)
		b = appendParamZig(b, int64(p.Prefix))
		b = appendParamZig(b, int64(p.Depth))
	case ocrParams:
		b = appendParamZig(b, p.Seed)
		b = appendParamZig(b, int64(p.Chars))
	case virusParams:
		b = appendParamZig(b, p.Seed)
		b = appendParamZig(b, int64(p.SizeKB))
		b = appendParamZig(b, int64(p.Planted))
	default:
		// A constant message, as in decodeParams: formatting v would box
		// every caller's parameter struct on the heap.
		panic("workload: no flat encoder for this parameter type")
	}
	return b
}

// paramReader consumes zigzag varints from a flat param blob.
type paramReader struct {
	buf []byte
	err error
}

func (r *paramReader) zig() int64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("workload: truncated param varint")
		return 0
	}
	r.buf = r.buf[n:]
	return int64(u>>1) ^ -int64(u&1)
}

func (r *paramReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("workload: %d trailing param bytes", len(r.buf))
	}
	return nil
}

// decodeParams decodes a flat app parameter blob. It never touches the
// heap on success — it is on the request path benchmark/ counts as
// `allocs_per_req` (and `workload.mixed_allocs_per_task` for this layer).
func decodeParams(data []byte, v any) error {
	if len(data) < 2 || data[0] != paramMagic {
		return ErrParamFormat
	}
	if data[1] != paramVersion {
		return fmt.Errorf("workload: unsupported param version %d (have %d)", data[1], paramVersion)
	}
	r := paramReader{buf: data[2:]}
	switch p := v.(type) {
	case *linpackParams:
		p.Seed = r.zig()
		p.N = int(r.zig())
	case *chessParams:
		p.Seed = r.zig()
		p.Prefix = int(r.zig())
		p.Depth = int(r.zig())
	case *ocrParams:
		p.Seed = r.zig()
		p.Chars = int(r.zig())
	case *virusParams:
		p.Seed = r.zig()
		p.SizeKB = int(r.zig())
		p.Planted = int(r.zig())
	default:
		// No %T here: formatting v would move every caller's parameter
		// struct to the heap, one allocation per Execute.
		return errors.New("workload: no flat decoder for this parameter type")
	}
	return r.done()
}

// EncodeLinpackParams builds a flat parameter blob for an order-n
// Linpack solve — the warehouse-hit request the benchmarks pump.
func EncodeLinpackParams(seed int64, n int) []byte {
	return encodeParams(linpackParams{Seed: seed, N: n})
}
