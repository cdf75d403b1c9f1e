package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/host"
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
	opKinds
)

// propWorld is one seeded run: a 3-shard cluster at R = 2, twelve size
// variants of one app (their manifests share the app's library chunks, so
// blocks carry several references), and in-process device.Clients.
type propWorld struct {
	t      *testing.T
	seed   int64
	e      *sim.Engine
	cl     *Cluster
	rng    *rand.Rand
	sizes  []host.Bytes
	aids   []string
	served map[string]bool // AIDs some request succeeded for
	epoch  uint64          // the highest epoch observed
	reqs   int
	ran    [opKinds]int
}

func newPropWorld(t *testing.T, seed int64) *propWorld {
	w := &propWorld{
		t: t, seed: seed, e: sim.NewEngine(seed), rng: rand.New(rand.NewSource(seed)),
		served: make(map[string]bool),
	}
	w.cl = NewReplicated(w.e, core.DefaultConfig(core.KindRattrap), 3, 2)
	for i := 0; i < 12; i++ {
		size := 512*host.KB + host.Bytes(i)
		w.sizes = append(w.sizes, size)
		w.aids = append(w.aids, offload.AID(workload.NameLinpack, size))
	}
	return w
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
	}
}

// checkQuiescent checks the books once nothing runs: every shard's chunk
// references and StoredBytes against a recount, no migration left
// half-done, and every AID a routable shard holds held on exactly its
// replica set, min(R, live) shards. An AID some request was served for is
// held somewhere, unless R shards have failed (R failures can take every
// copy of an entry).
func (w *propWorld) checkQuiescent(round int) {
	m := w.cl.Membership()
	holders := make(map[string][]int)
	for s := 0; s < w.cl.Shards(); s++ {
		wh := w.cl.Shard(s).Warehouse()
		if err := wh.Audit(); err != nil {
			w.t.Errorf("seed %d, round %d, shard %d: %v", w.seed, round, s, err)
		}
		if st := m.State(s); st == ShardJoining || st == ShardDraining {
			w.t.Errorf("seed %d, round %d: shard %d still %v at quiescence", w.seed, round, s, st)
		}
		if m.Routable(s) {
			for _, aid := range wh.AIDs() {
				holders[aid] = append(holders[aid], s)
			}
		}
	}
	want := min(m.Replicas(), m.LiveCount())
	for _, aid := range w.aids {
		have, ok := holders[aid]
		if !ok {
			if w.served[aid] && w.cl.MigrationStats().Failures < m.Replicas() {
				w.t.Errorf("seed %d, round %d: %s was served and is held nowhere", w.seed, round, aid)
			}
			continue
		}
		set := m.AppendReplicaSet(nil, aid)
		slices.Sort(set)
		if len(set) != want || !slices.Equal(have, set) {
			w.t.Errorf("seed %d, round %d: %s held on shards %v, its replica set is %v (min(R, live) = %d)",
				w.seed, round, aid, have, set, want)
		}
	}
}

// Property: over seeded random pushes, chunked pushes, execs, shard joins,
// removals and failures, interleaved in virtual time with each other and
// with the migrations they start, the epoch never goes back, and at every
// quiescent point each AID lives on exactly its replica set and every
// shard's warehouse books equal a recount.
func TestPropertyReplicasAndChunkBooks(t *testing.T) {
	const seeds, rounds, opsPerRound = 40, 4, 16
	var ran [opKinds]int
	for seed := int64(1); seed <= seeds; seed++ {
		w := newPropWorld(t, seed)
		for round := 0; round < rounds; round++ {
			w.e.Spawn("prop-ops", func(p *sim.Proc) {
				for i := 0; i < opsPerRound; i++ {
					w.step(p)
					w.observeEpoch("an op")
					p.Sleep(time.Duration(w.rng.Intn(300)) * time.Millisecond)
					w.observeEpoch("a pause")
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
	}
	if slices.Contains(ran[:], 0) {
		t.Errorf("ops run by kind (push, chunked push, exec, add, remove, fail): %v; every kind must run", ran)
	}
}
