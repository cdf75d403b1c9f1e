package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/netsim"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// fleet runs the paper's closed-loop device fleet against gw — devices
// handsets on LAN WiFi, starts 300 ms apart, requests each with apps taken
// round-robin — and returns every request's record, phases and span stages
// as text.
func fleet(t *testing.T, e *sim.Engine, gw offload.Gateway, apps []string, devices, requests int) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < devices; i++ {
		i := i
		dev, err := device.New(e, fmt.Sprintf("phone-%d", i+1), netsim.LANWiFi())
		if err != nil {
			t.Fatal(err)
		}
		dev.EnableSpans(true)
		e.Spawn(dev.Name, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * 300 * time.Millisecond)
			for r := 0; r < requests; r++ {
				app, _ := workload.ByName(apps[(i+r)%len(apps)])
				start := e.Now()
				est, ph, res, err := dev.MaybeOffload(p, dev.NewTask(app), app.CodeSize(), gw)
				off := est.ShouldOffload()
				fmt.Fprintf(&b, "%s #%d %s start=%d end=%d off=%v ph=%+v out=%q rerr=%q err=%v\n",
					dev.Name, r, app.Name(), start, e.Now(), off, ph, res.Output, res.Err, err)
				if off {
					for _, sr := range dev.LastSpan().Stages() {
						fmt.Fprintf(&b, "  %s %d\n", sr.Stage, sr.Dur.Nanoseconds())
					}
				}
			}
			fmt.Fprintf(&b, "%s traffic=%+v\n", dev.Name, dev.Traffic())
		})
	}
	e.Run()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("%d procs deadlocked", n)
	}
	return b.String()
}

// servedBy runs the fleet at seed on a bare Platform of kind, or on a
// 1-shard Cluster of it, and adds what the platform kept to the records:
// the registry, the warehouse and the Container DB.
func servedBy(t *testing.T, clustered bool, kind core.Kind, apps []string, seed int64, devices, requests int) string {
	e := sim.NewEngine(seed)
	reg := obs.NewRegistry()
	var gw offload.Gateway
	var pl *core.Platform
	if clustered {
		cl := NewReplicated(e, core.DefaultConfig(kind), 1, 1)
		cl.SetObs(reg)
		gw, pl = cl, cl.Shard(0)
	} else {
		pl = core.New(e, core.DefaultConfig(kind))
		pl.SetObs(reg)
		gw = pl
	}
	out := fleet(t, e, gw, apps, devices, requests)
	snap := reg.Snapshot()
	out += fmt.Sprintf("counters=%v\ngauges=%v\n", snap.Counters, snap.Gauges)
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// Stripes of a sharded histogram are picked at random; the merged
		// aggregates are deterministic.
		h := snap.Histograms[name]
		out += fmt.Sprintf("hist %s count=%d mean=%d max=%d\n", name, h.Count, h.MeanNs, h.MaxNs)
	}
	if wh := pl.Warehouse(); wh != nil {
		entries, hits, _ := wh.Stats()
		out += fmt.Sprintf("warehouse=%d/%d\n", entries, hits)
	}
	for _, rt := range pl.DB().List() {
		out += fmt.Sprintf("runtime %+v\n", *rt)
	}
	return out
}

// TestOneShardClusterGolden pins the cluster's compatibility contract: the
// paper's seed-42 Linpack fleet served through a 1-shard Cluster reproduces
// the bare Platform byte for byte — every record, phase and span stage,
// every registry instrument, the warehouse and the Container DB. The
// cluster layer may change behaviour only when it actually shards.
func TestOneShardClusterGolden(t *testing.T) {
	apps := []string{workload.NameLinpack}
	bare := servedBy(t, false, core.KindRattrap, apps, 42, 5, 4)
	one := servedBy(t, true, core.KindRattrap, apps, 42, 5, 4)
	if bare != one {
		t.Fatalf("1-shard cluster diverged from the bare platform:\n--- bare\n%s\n--- 1 shard\n%s", bare, one)
	}
	if bare == servedBy(t, false, core.KindRattrap, apps, 43, 5, 4) {
		t.Fatal("seed 43 reproduced seed 42: the dump is not sensitive to the run")
	}
}

// TestComparisonOneShardCluster pins the same contract over the paper's
// comparison grid: every workload on Rattrap, Rattrap(W/O) and the VM
// cloud, with a shorter fleet per cell.
func TestComparisonOneShardCluster(t *testing.T) {
	for _, kind := range []core.Kind{core.KindRattrap, core.KindRattrapWO, core.KindVM} {
		for _, app := range workload.Apps() {
			apps := []string{app.Name()}
			if bare, one := servedBy(t, false, kind, apps, 42, 2, 2), servedBy(t, true, kind, apps, 42, 2, 2); bare != one {
				t.Fatalf("%v/%s: 1-shard cluster diverged from the bare platform:\n--- bare\n%s\n--- 1 shard\n%s", kind, app.Name(), bare, one)
			}
		}
	}
}

// TestMultiShardRunCompletes exercises the sharded path with the device
// fleet: more devices than the paper's five, every request must succeed,
// and the merged Container DB must carry the per-shard CID prefixes that
// keep IDs unique cluster-wide.
func TestMultiShardRunCompletes(t *testing.T) {
	e := sim.NewEngine(42)
	cl := NewReplicated(e, core.DefaultConfig(core.KindRattrap), 4, 1)
	out := fleet(t, e, cl, []string{workload.NameLinpack}, 8, 4)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " #") && !strings.HasSuffix(line, "rerr=\"\" err=<nil>") {
			t.Fatalf("request failed: %s", line)
		}
	}
	runtimes := 0
	for s := 0; s < cl.Shards(); s++ {
		for _, info := range cl.Shard(s).DB().List() {
			runtimes++
			if !strings.HasPrefix(info.CID, CIDPrefix(s)) {
				t.Fatalf("shard %d runtime %q missing the shard CID prefix", s, info.CID)
			}
		}
	}
	if runtimes == 0 {
		t.Fatal("no runtimes recorded")
	}
}
