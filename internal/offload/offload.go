// Package offload defines the offloading framework shared by the client
// (mobile device) and the cloud platform: the wire protocol messages, the
// four-phase timing breakdown of §III-B, per-request traffic accounting
// (Figure 3 / Table II), and the Gateway interface through which a device
// drives a cloud platform. Rattrap "leaves the offloading details in
// clients to existing offloading frameworks and only cares about the cloud
// side" — this package is that framework boundary.
package offload

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// ControlBytes is the modeled size of per-request control messages
// (headers, method descriptors, acks) — the third slice of Figure 3.
const ControlBytes host.Bytes = 350

// AID identifies a mobile code blob (the App Warehouse cache key): the
// hash of the code, app-stable across devices.
func AID(app string, codeSize host.Bytes) string {
	// The bytes of fmt.Sprintf("%s:%d", app, codeSize), built on the stack:
	// the identity is recomputed for every simulated arrival, and the
	// Sprintf/EncodeToString form cost five allocations where the string
	// returned is the only one needed.
	var buf [64]byte
	key := append(append(buf[:0], app...), ':')
	key = strconv.AppendInt(key, int64(codeSize), 10)
	sum := sha1.Sum(key)
	var out [16]byte
	hex.Encode(out[:], sum[:8])
	return string(out[:])
}

// Code names one mobile code blob: its AID and the bytes a full push moves.
// A caller that offloads the same blob again and again keeps its Code
// rather than hashing the AID per request.
type Code struct {
	AID  string
	Size host.Bytes
}

// CodeOf is app's code blob of size bytes.
func CodeOf(app string, size host.Bytes) Code {
	return Code{AID: AID(app, size), Size: size}
}

// ExecRequest asks the cloud to run one offloaded task.
type ExecRequest struct {
	DeviceID string
	AID      string
	App      string
	Method   string
	Seq      int
	Params   []byte
	// Modeled wire sizes at paper scale.
	ParamBytes host.Bytes
	FileBytes  host.Bytes
	// Interactive exchanges during execution (games).
	RoundTrips    int
	InteractBytes host.Bytes

	// span carries the request's observability span through the platform.
	// Unexported and never encoded: each side of a real connection owns
	// its own span; in-process calls (simulations, the realtime server
	// handing a decoded request to core) pass it through.
	span *obs.Span

	// pre carries an ahead-of-time execution of the request's task (see
	// workload.Precomputed). Unexported for the same reason as span: it is
	// in-process only and never on the wire. The realtime server runs the
	// real computation on the request's worker goroutine — outside the
	// serialized engine — and the runtime returns this result instead of
	// recomputing under the engine lock; a simulated device attaches the
	// run its offload estimate already made.
	pre *workload.Precomputed

	// abort is the request's cancellation signal: when it fires, a
	// dispatcher parked waiting for a runtime abandons the wait instead
	// of eventually claiming a slot for a caller that is gone (the
	// realtime server fires one per connection at teardown). Unexported
	// for the same reason as span: cloud-internal, never on the wire.
	abort *sim.Signal
}

// NewExecRequest is the request that offloads task from deviceID, whose
// code is the blob aid names (AID of the app and its code size). The
// task's precomputed outcome, if it has one, rides along.
func NewExecRequest(deviceID string, task workload.Task, aid string) ExecRequest {
	return ExecRequest{
		DeviceID:      deviceID,
		AID:           aid,
		App:           task.App,
		Method:        task.Method,
		Seq:           task.Seq,
		Params:        task.Params,
		ParamBytes:    task.ParamBytes,
		FileBytes:     task.FileBytes,
		RoundTrips:    task.RoundTrips,
		InteractBytes: task.InteractBytes,
		pre:           task.Precomputed(),
	}
}

// Task is NewExecRequest's inverse, cloud side: the task the request asks
// for, carrying the request's precomputed outcome if it has one.
func (r ExecRequest) Task() workload.Task {
	t := workload.Task{
		App:           r.App,
		Method:        r.Method,
		Seq:           r.Seq,
		Params:        r.Params,
		ParamBytes:    r.ParamBytes,
		FileBytes:     r.FileBytes,
		RoundTrips:    r.RoundTrips,
		InteractBytes: r.InteractBytes,
	}
	t.SetPrecomputed(r.pre)
	return t
}

// SetPrecomputed attaches an ahead-of-time execution outcome for the
// request's task. A nil value (the default) means the runtime computes
// for real at dispatch.
func (r *ExecRequest) SetPrecomputed(p *workload.Precomputed) { r.pre = p }

// SetSpan attaches an observability span to the request. The platform
// records dispatcher/warehouse/runtime sub-stages into it. A nil span
// (the default) disables per-request recording.
func (r *ExecRequest) SetSpan(sp *obs.Span) { r.span = sp }

// Span returns the attached span, nil when observability is disabled.
func (r ExecRequest) Span() *obs.Span { return r.span }

// SetAbort attaches a cancellation signal. The signal must belong to the
// engine that will serve the request; firing it aborts any queued wait
// the request holds in the dispatcher.
func (r *ExecRequest) SetAbort(sig *sim.Signal) { r.abort = sig }

// Abort returns the attached cancellation signal, nil when the request
// cannot be aborted.
func (r ExecRequest) Abort() *sim.Signal { return r.abort }

// CodePush carries mobile code to the cloud (first offload of an app).
// Seq echoes the exec request the push answers so a pipelined server can
// route it to the right in-flight worker; serial clients may leave it 0.
type CodePush struct {
	AID  string
	App  string
	Size host.Bytes
	Seq  int
}

// Machine-readable error classes carried by Result.Code so clients can
// tell a retryable condition from their own bug without parsing Err.
const (
	// CodeOverloaded: the Dispatcher's wait queue is full; retry after
	// Result.RetryAfterMs.
	CodeOverloaded = "overloaded"
	// CodeProtocol: the client violated the wire protocol (wrong frame
	// kind, exec before hello, AID mismatch). Not retryable.
	CodeProtocol = "protocol"
	// CodeBlocked: the access controller rejected the app. Not retryable.
	CodeBlocked = "blocked"
	// CodeInternal: any other cloud-side failure.
	CodeInternal = "internal"
)

// Result is the cloud's reply.
type Result struct {
	Output      string
	ResultBytes host.Bytes
	Err         string
	// Code classifies Err ("" on success); see the Code* constants.
	Code string
	// RetryAfterMs is the cloud's backoff hint for CodeOverloaded.
	RetryAfterMs int64
	// Seq echoes ExecRequest.Seq so pipelined clients can match responses
	// that arrive out of order. Serial clients may ignore it.
	Seq int
}

// RetryAfter returns the overload backoff hint as a duration.
func (r Result) RetryAfter() time.Duration {
	return time.Duration(r.RetryAfterMs) * time.Millisecond
}

// ErrCodeNeeded is returned by Session.Execute when the session became
// responsible for delivering the mobile code after all: the device that
// claimed the first push aborted before completing it, and this session
// re-claimed. The caller must push the code and call Execute again.
var ErrCodeNeeded = errors.New("offload: mobile code needed")

// ErrOverloaded matches (via errors.Is) an OverloadedError: the platform
// refused admission because its wait queue is full.
var ErrOverloaded = errors.New("offload: platform overloaded")

// OverloadedError is the typed admission rejection, carrying the queue
// state and a retry-after hint derived from observed service times.
type OverloadedError struct {
	QueueDepth int
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("offload: platform overloaded (queue depth %d, retry after %v)", e.QueueDepth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Phases is the paper's decomposition of one offloading request (§III-B).
type Phases struct {
	// NetworkConnection: establishing the device↔cloud connection.
	NetworkConnection time.Duration
	// DataTransfer: moving params, files, code and results.
	DataTransfer time.Duration
	// RuntimePreparation: setting up the mobile code runtime after the
	// request arrives (the phase Rattrap attacks).
	RuntimePreparation time.Duration
	// ComputationExecution: pure execution of the offloaded task.
	ComputationExecution time.Duration
}

// Response is the total offloading response time.
func (p Phases) Response() time.Duration {
	return p.NetworkConnection + p.DataTransfer + p.RuntimePreparation + p.ComputationExecution
}

// Traffic accounts migrated data by kind (Figure 3's composition) and
// direction (Table II's totals).
type Traffic struct {
	CodeUp      host.Bytes
	FileParamUp host.Bytes
	ControlUp   host.Bytes
	Down        host.Bytes
}

// Up is total upload.
func (t Traffic) Up() host.Bytes { return t.CodeUp + t.FileParamUp + t.ControlUp }

// Add accumulates another record.
func (t *Traffic) Add(o Traffic) {
	t.CodeUp += o.CodeUp
	t.FileParamUp += o.FileParamUp
	t.ControlUp += o.ControlUp
	t.Down += o.Down
}

// Gateway is the cloud platform as seen by a device inside a simulation.
type Gateway interface {
	// Prepare allocates (possibly booting) a code runtime environment for
	// the request and returns a session plus nothing else; the runtime-
	// preparation time is observable as the virtual time Prepare consumes.
	Prepare(p *sim.Proc, req ExecRequest) (Session, error)
}

// Session is one request's binding to a prepared runtime. Every session
// speaks the delta push: one whose platform cannot stage chunks answers
// NegotiateChunks with Supported=false, and the device pushes in full.
type Session interface {
	// NeedCode reports whether the device must push the mobile code
	// (neither the runtime nor the App Warehouse has it).
	NeedCode() bool
	// PushCode delivers the code blob; the platform stores and loads it.
	PushCode(p *sim.Proc, push CodePush) error
	// NegotiateChunks answers a chunk offer with the chunks the server is
	// missing. A Supported=false reply tells the device to fall back to
	// PushCode.
	NegotiateChunks(p *sim.Proc, offer ChunkOffer) (ChunkNeed, error)
	// PushChunks completes a negotiated delta push: only the missing
	// chunks were transferred; the warehouse stages them and binds the
	// reassembled blob under the offer's AID.
	PushChunks(p *sim.Proc, offer ChunkOffer, missing []uint64) error
	// Execute runs the task and returns the result.
	Execute(p *sim.Proc) (Result, error)
	// Release ends the session (the runtime stays warm for reuse).
	Release()
}
