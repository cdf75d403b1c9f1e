package experiments

import (
	"testing"

	"rattrap/internal/core"
	"rattrap/internal/netsim"
	"rattrap/internal/workload"
)

// TestOneShardClusterGolden pins the tentpole's backward-compatibility
// contract at the Run level: serving an experiment through a 1-shard
// cluster.Cluster must reproduce the bare Platform's output byte for byte —
// every record, span stage, registry counter and warehouse stat. The
// cluster layer may only change behavior when it actually shards.
func TestOneShardClusterGolden(t *testing.T) {
	bare := goldenRunShards(t, 42, 0)
	one := goldenRunShards(t, 42, 1)
	if bare != one {
		t.Fatalf("1-shard cluster diverged from bare platform:\n--- bare\n%s\n--- 1 shard\n%s", bare, one)
	}
}

// TestComparisonOneShardCluster pins the same contract on the paper's
// headline artifact: the Figure 9 and Table II renderings of a seed-42
// comparison served through a 1-shard cluster must be byte-identical to the
// pre-refactor Platform path.
func TestComparisonOneShardCluster(t *testing.T) {
	base, err := RunComparison(42)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := RunComparisonShards(42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := base.Figure9Render(), clustered.Figure9Render(); a != b {
		t.Fatalf("figure 9 diverged through 1-shard cluster:\n--- platform\n%s\n--- cluster\n%s", a, b)
	}
	if a, b := base.TableIIRender(), clustered.TableIIRender(); a != b {
		t.Fatalf("table II diverged through 1-shard cluster:\n--- platform\n%s\n--- cluster\n%s", a, b)
	}
	for _, app := range base.Order {
		be, bh := base.WarehouseStats(app)
		ce, ch := clustered.WarehouseStats(app)
		if be != ce || bh != ch {
			t.Fatalf("%s warehouse stats diverged: platform %d/%d, cluster %d/%d", app, be, bh, ce, ch)
		}
	}
}

// TestMultiShardRunCompletes exercises the sharded path end to end inside
// the simulation: more devices than the paper's five so multiple shards
// see traffic, every request must succeed, and the merged Container DB must
// carry the per-shard CID prefixes that keep IDs unique cluster-wide.
func TestMultiShardRunCompletes(t *testing.T) {
	cfg := DefaultRun(core.KindRattrap, netsim.LANWiFi(), workload.NameLinpack, 42)
	cfg.Devices = 8
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Err != "" {
			t.Fatalf("request %s/%d failed: %s", rec.Device, rec.Index, rec.Err)
		}
	}
	if len(res.Runtimes) == 0 {
		t.Fatal("no runtimes recorded")
	}
	prefixed := 0
	for _, info := range res.Runtimes {
		if len(info.CID) > 2 && info.CID[0] == 's' {
			prefixed++
		}
	}
	if prefixed != len(res.Runtimes) {
		t.Fatalf("%d/%d runtimes missing the shard CID prefix: %+v", len(res.Runtimes)-prefixed, len(res.Runtimes), res.Runtimes)
	}
}
