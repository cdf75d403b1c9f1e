package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// The ops of TestPropertyReplicasAndChunkBooks.
const (
	opPush        = iota // a device's full push of an AID nobody has been served
	opChunkedPush        // the same, as a chunk offer and delta
	opExec               // a request for an AID already served
	opAddShard
	opRemoveShard
	opFailShard
	opFSFault // the next chunk write on a random live shard fails
	opKinds
)

// propWorld is one seeded run: a 3-shard cluster at R = 2 whose shards run
// one runtime each, so overlapping requests park in a shard's wait ring;
// twelve size variants of one app (their manifests share the app's library
// chunks, so blocks carry several references); and in-process
// device.Clients.
type propWorld struct {
	t        *testing.T
	seed     int64
	e        *sim.Engine
	cl       *Cluster
	reg      *obs.Registry
	rng      *rand.Rand
	sizes    []host.Bytes
	aids     []string
	served   map[string]bool // AIDs some request succeeded for
	epoch    uint64          // the highest epoch observed
	reqs     int             // requests started
	returned int             // requests whose Attempt came back
	ran      [opKinds]int
	failNext map[int]bool // shards whose next chunk write fails
	faulted  int          // chunk writes failed
}

func newPropWorld(t *testing.T, seed int64) *propWorld {
	w := &propWorld{
		t: t, seed: seed, e: sim.NewEngine(seed), rng: rand.New(rand.NewSource(seed)),
		served: make(map[string]bool), failNext: make(map[int]bool),
	}
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1
	w.cl = NewReplicated(w.e, cfg, 3, 2)
	for s := 0; s < w.cl.Shards(); s++ {
		w.hookChunkWrites(s, w.cl.Shard(s))
	}
	w.cl.OnShardAdded(w.hookChunkWrites)
	w.reg = obs.NewRegistry()
	w.cl.SetObs(w.reg)
	for i := 0; i < 12; i++ {
		size := 512*host.KB + host.Bytes(i)
		w.sizes = append(w.sizes, size)
		w.aids = append(w.aids, offload.AID(workload.NameLinpack, size))
	}
	return w
}

// hookChunkWrites fails shard id's next chunk write once an fs-fault op
// armed it: a device's delta push, a replica's fan-out or a migration's
// copy, whichever stages a block there first.
func (w *propWorld) hookChunkWrites(id int, pl *core.Platform) {
	pl.OffloadIO().SetFault(func(p *sim.Proc, path string, _ host.Bytes) error {
		if !w.failNext[id] || !strings.HasPrefix(path, "/warehouse/chunks/") {
			return nil
		}
		w.failNext[id] = false
		w.faulted++
		return errors.New("injected chunk write failure")
	})
}

// observeEpoch checks the epoch never went back since it was last looked at.
func (w *propWorld) observeEpoch(where string) {
	if ep := w.cl.Epoch(); ep < w.epoch {
		w.t.Errorf("seed %d, %s: epoch %d after %d", w.seed, where, ep, w.epoch)
	} else {
		w.epoch = ep
	}
}

// shardsIn lists the shards in state st.
func (w *propWorld) shardsIn(st ShardState) []int {
	var ids []int
	for s := 0; s < w.cl.Shards(); s++ {
		if w.cl.Membership().State(s) == st {
			ids = append(ids, s)
		}
	}
	return ids
}

// request runs one offload of variant i on a proc of its own, so requests
// overlap each other and the migrations the membership ops start.
func (w *propWorld) request(i int, chunked bool) {
	w.reqs++
	seq := w.reqs
	w.e.Spawn("prop-request", func(p *sim.Proc) {
		c := device.Client{ID: fmt.Sprintf("dev-%d", seq), Chunked: chunked}
		task := workload.Task{
			App: workload.NameLinpack, Method: "solve", Seq: seq,
			Params: workload.EncodeLinpackParams(int64(seq), 8), ParamBytes: 500,
		}
		if _, err := c.Attempt(p, w.cl, task, w.sizes[i], nil); err == nil {
			w.served[w.aids[i]] = true
		}
		w.returned++
		w.observeEpoch(fmt.Sprintf("request %d", seq))
	})
}

// step draws one op and starts it. A remove or a failure always leaves a
// Live shard, and the cluster stops growing at eight slots.
func (w *propWorld) step(p *sim.Proc) {
	var fresh, served []int
	for i, aid := range w.aids {
		if w.served[aid] {
			served = append(served, i)
		} else {
			fresh = append(fresh, i)
		}
	}
	live := w.shardsIn(ShardLive)
	switch op := w.rng.Intn(opKinds); {
	case op == opExec || op < opExec && len(fresh) == 0:
		if len(served) > 0 {
			w.request(served[w.rng.Intn(len(served))], w.rng.Intn(2) == 0)
			w.ran[opExec]++
		}
	case op < opExec:
		w.request(fresh[w.rng.Intn(len(fresh))], op == opChunkedPush)
		w.ran[op]++
	case op == opAddShard && w.cl.Shards() < 8:
		w.cl.AddShard()
		w.ran[op]++
	case op == opRemoveShard && len(live) > 1:
		w.cl.RemoveShard(live[w.rng.Intn(len(live))])
		w.ran[op]++
	case op == opFailShard:
		victims := w.shardsIn(ShardJoining)
		if len(live) > 1 {
			victims = append(victims, live...)
		}
		if len(victims) > 0 {
			w.cl.FailShard(victims[w.rng.Intn(len(victims))])
			w.ran[op]++
		}
	case op == opFSFault:
		w.failNext[live[w.rng.Intn(len(live))]] = true
		w.ran[op]++
	}
}

// audit runs the cluster's audit, which at every point checks each shard's
// books and that no shard out of the ring has a request parked, and once
// nothing runs also the replica placement.
func (w *propWorld) audit(where string) {
	if err := w.cl.Audit(); err != nil {
		w.t.Errorf("seed %d, %s: %v", w.seed, where, err)
	}
}

// queued counts the requests that have waited in some shard's wait ring.
func (w *propWorld) queued() int64 {
	var n int64
	for s := 0; s < w.cl.Shards(); s++ {
		n += w.reg.Counter(ShardPrefix(s) + "dispatch.queued").Value()
	}
	return n
}

// checkQuiescent checks the run once nothing runs: every request started
// has returned, no proc is alive, every wait ring is empty, the cluster's
// audit passes, and an AID some request was served for is held somewhere,
// unless R shards have failed (R failures can take every copy of an entry).
func (w *propWorld) checkQuiescent(round int) {
	if w.returned != w.reqs {
		w.t.Errorf("seed %d, round %d: %d of %d requests never returned", w.seed, round, w.reqs-w.returned, w.reqs)
	}
	if n := w.e.LiveProcs(); n != 0 {
		w.t.Errorf("seed %d, round %d: %d procs alive at quiescence", w.seed, round, n)
	}
	for s := 0; s < w.cl.Shards(); s++ {
		if n := w.cl.Shard(s).QueueLength(); n != 0 {
			w.t.Errorf("seed %d, round %d: shard %d has %d requests in its wait ring", w.seed, round, s, n)
		}
	}
	w.audit(fmt.Sprintf("round %d", round))
	if w.cl.MigrationStats().Failures >= w.cl.Membership().Replicas() {
		return
	}
	for aid := range w.served { // the audit put every held AID on its primary
		if _, ok := w.cl.Shard(w.cl.Owner(aid)).Warehouse().Lookup(aid); !ok {
			w.t.Errorf("seed %d, round %d: %s was served and is held nowhere", w.seed, round, aid)
		}
	}
}

// Property: over seeded random pushes, chunked pushes, execs, shard joins,
// removals and failures, and failed chunk writes, interleaved in virtual
// time with each other and with the migrations they start (a failed write
// hits whichever staging comes first: a delta push, a fan-out or a
// migration's copy), the epoch never goes back, the cluster's
// audit passes after every op and pause, and at every quiescent point no
// request is left parked and every served AID is still held.
func TestPropertyReplicasAndChunkBooks(t *testing.T) {
	const seeds, rounds, opsPerRound = 40, 4, 16
	var ran [opKinds]int
	var queued int64
	faulted := 0
	for seed := int64(1); seed <= seeds; seed++ {
		w := newPropWorld(t, seed)
		for round := 0; round < rounds; round++ {
			w.e.Spawn("prop-ops", func(p *sim.Proc) {
				for i := 0; i < opsPerRound; i++ {
					w.step(p)
					w.observeEpoch("an op")
					w.audit("an op")
					p.Sleep(time.Duration(w.rng.Intn(300)) * time.Millisecond)
					w.observeEpoch("a pause")
					w.audit("a pause")
				}
			})
			w.e.Run()
			w.checkQuiescent(round)
			if t.Failed() {
				return
			}
		}
		for k, n := range w.ran {
			ran[k] += n
		}
		queued += w.queued()
		faulted += w.faulted
	}
	if slices.Contains(ran[:], 0) {
		t.Errorf("ops run by kind (push, chunked push, exec, add, remove, fail, fs-fault): %v; every kind must run", ran)
	}
	if queued == 0 {
		t.Error("no request ever waited in a wait ring; the parked-request checks test nothing")
	}
	if faulted == 0 {
		t.Error("no chunk write ever failed; the fs-fault op tests nothing")
	}
	t.Logf("ops by kind %v, %d requests queued, %d chunk writes failed", ran, queued, faulted)
}
