package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// scanPick is the dispatch contract written as the scan it replaces: walk
// the pool in boot order and take the first idle runtime that holds aid's
// code, else the first idle runtime.
func scanPick(pl *Platform, aid string) (*slot, bool) {
	var first *slot
	for sl := pl.slots.head; sl != nil; sl = sl.next {
		if !slotIdle(sl) {
			continue
		}
		if sl.rt.CodeLoaded(aid) {
			return sl, true
		}
		if first == nil {
			first = sl
		}
	}
	return first, false
}

// scanChecked wraps a platform's scheduler and compares every Pick, at the
// instant it is made, with scanPick.
type scanChecked struct {
	Scheduler
	t          *testing.T
	pl         *Platform
	seed       int64
	picks, aff int
}

func (s *scanChecked) Pick(aid string) (*slot, bool) {
	want, wantAff := scanPick(s.pl, aid)
	got, aff := s.Scheduler.Pick(aid)
	if got != want || aff != wantAff {
		s.t.Errorf("seed %d: Pick(%s) = %s (affinity %v), in-order scan %s (affinity %v)",
			s.seed, aid, slotName(got), aff, slotName(want), wantAff)
	}
	if got != nil {
		s.picks++
	}
	if aff {
		s.aff++
	}
	return got, aff
}

func slotName(sl *slot) string {
	if sl == nil {
		return "none"
	}
	return sl.id
}

// TestPropertyAffinityPickMatchesScan drives platforms of 1 to 8 runtimes
// with random requests over 80 AIDs, a few hot and many rare — each a code
// push or a warehouse load the first time a runtime sees it, an affinity
// candidate after — held
// across later operations and released in random order, with runtimes
// cordoned and reaped in between. Every pick the indexed scheduler makes
// must be the one the in-order scan of the pool makes.
func TestPropertyAffinityPickMatchesScan(t *testing.T) {
	params := workload.EncodeLinpackParams(1, 8)
	aids := make([]string, 80)
	for i := range aids {
		aids[i] = fmt.Sprintf("aid-%02d", i)
	}
	var picks, aff int
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(seed)
		cfg := DefaultConfig(KindRattrap)
		cfg.MaxRuntimes = 1 + r.Intn(8)
		pl := New(e, cfg)
		chk := &scanChecked{Scheduler: pl.sched, t: t, pl: pl, seed: seed}
		pl.sched = chk
		e.Spawn("ops", func(p *sim.Proc) {
			var held []offload.Session
			for op := 0; op < 200; op++ {
				switch k := r.Intn(12); {
				case k < 6:
					idle, _ := scanPick(pl, "")
					if idle == nil && pl.slots.n >= pl.cfg.MaxRuntimes {
						continue // the request would queue behind this very proc
					}
					i := r.Intn(len(aids))
					aid := aids[i*i/len(aids)] // skewed: low AIDs are hot
					req := offload.ExecRequest{DeviceID: "d", AID: aid, App: workload.NameLinpack,
						Method: "solve", Seq: op, Params: params, ParamBytes: 500}
					sess, err := pl.Prepare(p, req)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						return
					}
					if sess.NeedCode() {
						if err := sess.PushCode(p, offload.CodePush{AID: aid, App: req.App, Size: 4096}); err != nil {
							t.Errorf("seed %d: %v", seed, err)
							return
						}
					}
					if r.Intn(4) > 0 {
						if _, err := sess.Execute(p); err != nil {
							t.Errorf("seed %d: %v", seed, err)
							return
						}
					}
					held = append(held, sess)
				case k < 11:
					if len(held) > 0 {
						i := r.Intn(len(held))
						held[i].Release()
						held = append(held[:i], held[i+1:]...)
					}
				default:
					var ids []string
					pl.slots.each(func(sl *slot) { ids = append(ids, sl.id) })
					if len(ids) == 0 {
						continue
					}
					if id := ids[r.Intn(len(ids))]; r.Intn(2) == 0 {
						pl.CordonRuntime(id)
					} else if pl.byID[id].info.State == LifecycleIdle {
						_ = pl.StopRuntime(p, id)
					}
				}
			}
			for _, s := range held {
				s.Release()
			}
		})
		e.Run()
		if t.Failed() {
			return
		}
		picks += chk.picks
		aff += chk.aff
	}
	t.Logf("%d picks of an idle runtime, %d of them affinity hits", picks, aff)
	if aff < 1000 || picks-aff < 1000 {
		t.Fatalf("%d picks, %d affinity hits: the model must exercise both halves of Pick", picks, aff)
	}
}
