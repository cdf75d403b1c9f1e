package offload

import (
	"errors"
	"fmt"
)

// PipelineClient drives the wire protocol with up to depth exec requests
// in flight on one connection. It is single-goroutine by construction:
// Submit and Flush process incoming frames inline while they wait, so the
// Conn is never touched concurrently. Results arrive in completion order,
// not submission order, matched by Result.Seq — every in-flight request
// must therefore carry a distinct Seq.
//
// A server-side NEED_CODE is answered through the code callback; the
// returned push is stamped with the asking request's Seq so the server
// routes it to the right in-flight exchange.
type PipelineClient struct {
	c       *Conn
	depth   int
	code    func(NeedCode) (CodePush, error)
	onRes   func(Result)
	pending map[int]struct{}
	err     error
	// exec is the request Submit is sending and push the code step is
	// answering a NEED_CODE with: the frames point at them here, so neither
	// escapes to the heap once per request.
	exec ExecRequest
	push CodePush
}

// NewPipelineClient wraps an established protocol connection. depth < 1
// is treated as 1 (serial). code supplies the mobile code when the cloud
// asks for it; nil fails the pipeline on any NEED_CODE. onResult, if
// non-nil, is called for every result as it arrives.
func NewPipelineClient(c *Conn, depth int, code func(NeedCode) (CodePush, error), onResult func(Result)) *PipelineClient {
	if depth < 1 {
		depth = 1
	}
	return &PipelineClient{
		c:       c,
		depth:   depth,
		code:    code,
		onRes:   onResult,
		pending: make(map[int]struct{}, depth),
	}
}

// Hello opens the session.
func (p *PipelineClient) Hello(deviceID string) error {
	return p.send(Frame{Kind: KindHello, Hello: &Hello{DeviceID: deviceID}})
}

// Submit sends one exec request, first draining incoming frames until the
// pipeline window has room. The request's Seq must be unique among
// in-flight requests.
func (p *PipelineClient) Submit(req ExecRequest) error {
	if _, dup := p.pending[req.Seq]; dup && p.err == nil {
		return fmt.Errorf("offload: seq %d already in flight", req.Seq)
	}
	for p.err == nil && len(p.pending) >= p.depth {
		p.step()
	}
	p.exec = req
	err := p.send(Frame{Kind: KindExec, Exec: &p.exec})
	p.exec = ExecRequest{} // the frame is encoded: let go of the params
	if err != nil {
		return err
	}
	p.pending[req.Seq] = struct{}{}
	return nil
}

// Flush processes incoming frames until every in-flight request has
// resolved.
func (p *PipelineClient) Flush() error {
	for p.err == nil && len(p.pending) > 0 {
		p.step()
	}
	return p.err
}

// send writes one frame. The pipeline's first error, here or in step, is
// final: every later call reports it.
func (p *PipelineClient) send(f Frame) error {
	if p.err == nil {
		p.err = p.c.Send(f)
	}
	return p.err
}

// step handles one incoming frame: a NEED_CODE triggers the code
// callback, a result completes its request.
func (p *PipelineClient) step() {
	f, err := p.c.Recv()
	switch {
	case err != nil:
		p.err = err
	case f.Kind == KindNeedCode && p.code == nil:
		p.err = errors.New("offload: cloud asked for code but no code source configured")
	case f.Kind == KindNeedCode:
		var need NeedCode
		if f.NeedCode != nil {
			need = *f.NeedCode
		}
		if p.push, p.err = p.code(need); p.err == nil {
			p.push.Seq = need.Seq
			p.send(Frame{Kind: KindCode, Code: &p.push})
		}
		p.push = CodePush{} // the frame is encoded: let go of the strings
	case f.Kind != KindResult:
		p.err = fmt.Errorf("offload: unexpected %s frame from the cloud", f.Kind)
	case f.Result.Code == CodeProtocol:
		// The server's farewell before it closes the connection: it answers
		// no request (Seq 0), it says what the client did wrong.
		p.err = fmt.Errorf("offload: cloud rejected the connection: %s", f.Result.Err)
	default:
		res := *f.Result
		if _, ok := p.pending[res.Seq]; !ok {
			p.err = fmt.Errorf("offload: result for unknown seq %d", res.Seq)
			return
		}
		delete(p.pending, res.Seq)
		if p.onRes != nil {
			p.onRes(res)
		}
	}
}
