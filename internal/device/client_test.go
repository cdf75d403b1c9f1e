package device

import (
	"fmt"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/faults"
	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestExchangeTable drives Client.Attempt over a real core.Platform through
// every way the cloud can come by the mobile code, for every kind of push,
// with and without a modelled link. Whatever the path, the attempt's phases
// (and its span's top-level stages) must sum to the virtual time it took —
// the ErrCodeNeeded re-push used to be booked twice — and the bytes booked
// must not depend on whether a link models their transfer.
func TestExchangeTable(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	size := app.CodeSize()
	const (
		upFront   = "code asked up front"
		hit       = "warehouse hit"
		coalesced = "coalesced wait"
		reclaim   = "ErrCodeNeeded re-claim"
	)
	pushes := []struct {
		name    string
		kind    core.Kind
		chunked bool
		sources []string
	}{
		{"full", core.KindRattrap, false, []string{upFront, hit, coalesced, reclaim}},
		{"chunked", core.KindRattrap, true, []string{upFront, hit, coalesced, reclaim}},
		// No warehouse: the offer is answered Supported=false, and none of
		// the warehouse's other ways to the code exist.
		{"chunked-unsupported", core.KindRattrapWO, true, []string{upFront}},
	}
	for _, push := range pushes {
		for _, source := range push.sources {
			var booked [2]offload.Traffic
			var resultBytes host.Bytes
			for i, linked := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/linked=%v", push.name, source, linked)
				e := sim.NewEngine(7)
				pl := core.New(e, core.DefaultConfig(push.kind))
				subject := Client{ID: "subject", Chunked: push.chunked}
				if linked {
					subject.Link = netsim.NewLink(e, netsim.LANWiFi())
				}
				// The other device. As a claimant its link signals once the
				// cloud asked it for the code, then sits on the upload long
				// enough for the subject to start waiting on it, and for a
				// re-claim loses it.
				other := Client{ID: "other", Link: netsim.NewLink(e, netsim.LANWiFi())}
				claimed := sim.NewSignal(e)
				other.Link.SetFault(other.ID, func(p *sim.Proc, op, _ string, n host.Bytes) error {
					switch {
					case source != coalesced && source != reclaim:
					case op == faults.SiteDownload && !claimed.Fired():
						claimed.Fire()
					case op == faults.SiteUpload && n == size:
						p.Sleep(time.Second)
						if source == reclaim {
							return &faults.Error{Kind: faults.Drop, Site: op, Target: other.ID}
						}
					}
					return nil
				})

				var x Exchange
				var err error
				var elapsed time.Duration
				sp := obs.NewSpan()
				e.Spawn("test", func(p *sim.Proc) {
					task := func(seq int) workload.Task { return app.NewTask(e.Rand(), seq) }
					for i := 0; i < 2; i++ { // warm runtimes: Prepare is immediate
						if _, err := pl.BootRuntime(p); err != nil {
							t.Error(err)
						}
					}
					switch source {
					case hit:
						if _, err := other.Attempt(p, pl, task(0), size, nil); err != nil {
							t.Errorf("%s: other device: %v", name, err)
						}
					case coalesced, reclaim:
						e.Spawn("other", func(p *sim.Proc) {
							if _, err := other.Attempt(p, pl, task(0), size, nil); (err != nil) != (source == reclaim) {
								t.Errorf("%s: other device: %v", name, err)
							}
						})
						p.Wait(claimed)
					}
					start := e.Now()
					x, err = subject.Attempt(p, pl, task(1), size, sp)
					elapsed = (e.Now() - start).Duration()
				})
				e.Run()

				if err != nil || x.Result.Output == "" {
					t.Fatalf("%s: result %+v, err %v", name, x.Result, err)
				}
				if got := x.Phases.Response(); got != elapsed {
					t.Errorf("%s: phases sum to %v, the attempt took %v: %+v", name, got, elapsed, x.Phases)
				}
				if got := sp.TopLevelTotal(); got != elapsed {
					t.Errorf("%s: top-level span stages sum to %v, the attempt took %v", name, got, elapsed)
				}
				if !linked && (x.Phases.NetworkConnection != 0 || x.Phases.DataTransfer != 0 || x.UpAirtime != 0 || x.DownAirtime != 0) {
					t.Errorf("%s: a nil link took time: %+v", name, x.OffloadBreakdown)
				}
				booked[i], resultBytes = x.Traffic, x.Result.ResultBytes
			}

			name := push.name + "/" + source
			tr := booked[0]
			if booked[1] != tr {
				t.Errorf("%s: traffic %+v with a link, %+v without", name, tr, booked[1])
			}
			// The subject moves the code exactly when the cloud has no other
			// way to it; into an empty warehouse a delta is the whole blob.
			wantCode, replies := host.Bytes(0), host.Bytes(1)
			if source == upFront || source == reclaim {
				wantCode, replies = size, 2 // result + NEED_CODE
			}
			if tr.CodeUp != wantCode {
				t.Errorf("%s: CodeUp = %d, want %d", name, tr.CodeUp, wantCode)
			}
			wantControlUp, wantDown := offload.ControlBytes, replies*offload.ControlBytes+resultBytes
			if push.chunked && wantCode > 0 {
				hashes := host.Bytes(8 * offload.ChunkCount(size))
				wantControlUp += hashes + offload.ControlBytes // the offer
				wantDown += offload.ControlBytes               // the answer ...
				if push.kind == core.KindRattrap {
					wantDown += hashes // ... listing every chunk as missing
				}
			}
			if tr.ControlUp != wantControlUp || tr.Down != wantDown {
				t.Errorf("%s: ControlUp/Down = %d/%d, want %d/%d", name, tr.ControlUp, tr.Down, wantControlUp, wantDown)
			}
		}
	}
}
