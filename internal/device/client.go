package device

import (
	"errors"
	"fmt"
	"time"

	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/power"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// Client is the device half of the offload exchange and its only simulated
// implementation: a Device offloads through one, and the fleet-scale caller
// (every scenario arrival) makes a bare Client per request, because a
// Device costs a host model and a draw from the engine's random source that
// a million arrivals cannot afford and a pinned schedule must not see.
type Client struct {
	// ID is the DeviceID requests carry: half of the idempotency key.
	ID string
	// Link carries the modelled transfers. Nil means in-process: the
	// exchange makes the same gateway calls but no transfer takes time or
	// can fail.
	Link *netsim.Link
	// Chunked opens code pushes with a chunk-hash offer and moves only the
	// chunks the warehouse is missing; the cloud has no switch of its own.
	// A Supported=false answer (a platform without a warehouse, or a
	// malformed offer) falls back to the full push.
	Chunked bool
}

// Exchange is what one attempt cost the device — the §III-B phases and
// radio airtime, the bytes moved by kind — and the cloud's reply. The
// phases sum to the virtual time the attempt took.
type Exchange struct {
	power.OffloadBreakdown
	Traffic offload.Traffic
	Result  offload.Result
}

// attempt is one exchange in progress.
type attempt struct {
	Client
	Exchange
	p  *sim.Proc
	sp *obs.Span
}

// Attempt runs the paper's basic offloading mechanism once: connect,
// transfer parameters and files, let the cloud prepare a runtime, push code
// if the cloud lacks it (also when Execute hands over a push another device
// abandoned), execute, download the result. Every phase accumulation is
// mirrored into sp as a top-level stage, and sp rides the request so the
// platform's sub-stages land in it; nil disables both. A failed attempt
// still reports what it spent.
func (c Client) Attempt(p *sim.Proc, gw offload.Gateway, task workload.Task, codeSize host.Bytes, sp *obs.Span) (Exchange, error) {
	a := attempt{Client: c, p: p, sp: sp}
	err := a.run(gw, task, codeSize)
	return a.Exchange, err
}

func (a *attempt) run(gw offload.Gateway, task workload.Task, codeSize host.Bytes) error {
	req := offload.NewExecRequest(a.ID, task, codeSize)
	req.SetSpan(a.sp)

	// A fault while connecting burned the attempt's setup time (accounted
	// in the phase) but left no connection.
	if a.Link != nil {
		dur, err := a.Link.Connect(a.p)
		a.Phases.NetworkConnection = dur
		a.sp.Add(obs.StageConnect, dur)
		if err != nil {
			return fmt.Errorf("device %s: connect: %w", a.ID, err)
		}
	}
	if err := a.up(task.UploadBytes()+offload.ControlBytes, "uploading request"); err != nil {
		return err
	}
	a.Traffic.FileParamUp += task.UploadBytes()
	a.Traffic.ControlUp += offload.ControlBytes

	// Runtime preparation is cloud side; the device waits.
	start := a.p.E.Now()
	sess, err := gw.Prepare(a.p, req)
	if err != nil {
		return fmt.Errorf("device %s: %w", a.ID, err)
	}
	defer sess.Release()
	a.waited(&a.Phases.RuntimePreparation, obs.StagePrepare, start)

	// Duplicate code transfer happens only when the cloud asks for it.
	if sess.NeedCode() {
		if err := a.pushCode(sess, req, codeSize); err != nil {
			return err
		}
	}

	// Computation execution, including the client side of any mid-execution
	// interaction (the server side runs inside Execute).
	for {
		start = a.p.E.Now()
		a.Result, err = sess.Execute(a.p)
		a.waited(&a.Phases.ComputationExecution, obs.StageExecute, start)
		if !errors.Is(err, offload.ErrCodeNeeded) {
			break
		}
		// The push this session was waiting on aborted and the cloud handed
		// the claim to us: supply the code, then execute.
		if err := a.pushCode(sess, req, codeSize); err != nil {
			return err
		}
	}
	if err != nil {
		return fmt.Errorf("device %s: %w", a.ID, err)
	}
	// Interaction payloads ride the open stream pipelined with execution
	// (their latency is inside Execute, on the server's network path).
	n := host.Bytes(task.RoundTrips) * task.InteractBytes
	a.Traffic.FileParamUp += n
	a.Traffic.Down += n
	if a.Result.Err != "" {
		return fmt.Errorf("device %s: cloud error: %s", a.ID, a.Result.Err)
	}
	return a.down(a.Result.ResultBytes+offload.ControlBytes, "downloading result")
}

// pushCode runs the duplicate-code exchange: NEED_CODE reply down, code up
// (the whole blob, or the negotiated delta), server-side staging.
func (a *attempt) pushCode(sess offload.Session, req offload.ExecRequest, codeSize host.Bytes) error {
	if err := a.down(offload.ControlBytes, "receiving NEED_CODE"); err != nil {
		return err
	}
	if a.Chunked {
		// The negotiation costs one control round trip carrying the packed
		// hash lists.
		offer := offload.ChunkOffer{
			AID: req.AID, App: req.App, Size: codeSize, Seq: req.Seq,
			Hashes: offload.SyntheticManifest(req.App, codeSize),
		}
		n := packedBytes(offer.Hashes)
		if err := a.up(n, "offering chunks"); err != nil {
			return err
		}
		a.Traffic.ControlUp += n
		need, err := sess.NegotiateChunks(a.p, offer)
		if err != nil {
			return fmt.Errorf("device %s: negotiating chunks: %w", a.ID, err)
		}
		if err := a.down(packedBytes(need.Missing), "receiving chunk needs"); err != nil {
			return err
		}
		if need.Supported {
			if delta := offload.DeltaBytes(offer, need.Missing); delta > 0 {
				if err := a.up(delta, "uploading chunk delta"); err != nil {
					return err
				}
				a.Traffic.CodeUp += delta
			}
			start := a.p.E.Now()
			if err := sess.PushChunks(a.p, offer, need.Missing); err != nil {
				return fmt.Errorf("device %s: pushing chunks: %w", a.ID, err)
			}
			a.waited(&a.Phases.RuntimePreparation, obs.StagePrepare, start)
			return nil
		}
	}
	if err := a.up(codeSize, "uploading code"); err != nil {
		return err
	}
	a.Traffic.CodeUp += codeSize
	start := a.p.E.Now()
	if err := sess.PushCode(a.p, offload.CodePush{AID: req.AID, App: req.App, Size: codeSize}); err != nil {
		return fmt.Errorf("device %s: pushing code: %w", a.ID, err)
	}
	// Server-side staging/ClassLoader time counts as preparation.
	a.waited(&a.Phases.RuntimePreparation, obs.StagePrepare, start)
	return nil
}

// packedBytes is the wire size of a control message carrying a hash list
// (offload.PackHashes: 8 bytes a hash).
func packedBytes(hashes []uint64) host.Bytes {
	return host.Bytes(8*len(hashes)) + offload.ControlBytes
}

// up moves n bytes to the cloud; the caller books them by kind once they
// arrived.
func (a *attempt) up(n host.Bytes, what string) error {
	if a.Link == nil {
		return nil
	}
	dur, err := a.Link.Upload(a.p, n)
	a.Phases.DataTransfer += dur
	a.sp.Add(obs.StageTransfer, dur)
	a.UpAirtime += dur
	if err != nil {
		return fmt.Errorf("device %s: %s: %w", a.ID, what, err)
	}
	return nil
}

// down moves n bytes to the device and books them.
func (a *attempt) down(n host.Bytes, what string) error {
	if a.Link != nil {
		dur, err := a.Link.Download(a.p, n)
		a.Phases.DataTransfer += dur
		a.sp.Add(obs.StageTransfer, dur)
		a.DownAirtime += dur
		if err != nil {
			return fmt.Errorf("device %s: %s: %w", a.ID, what, err)
		}
	}
	a.Traffic.Down += n
	return nil
}

// waited books the virtual time since start, spent waiting on the cloud,
// under phase and its span stage.
func (a *attempt) waited(phase *time.Duration, stage string, start sim.Time) {
	d := (a.p.E.Now() - start).Duration()
	*phase += d
	a.sp.Add(stage, d)
}
