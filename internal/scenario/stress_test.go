package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestStressChaosMix is the race-detector stress: the checked-in
// chaos-mix scenario stands up a 4-shard autoscaled cluster and, while
// the fleet injects load, takes a ×10 spike, a shard kill, a lossy fault
// plan, a network flip, and a floor raise. `go test -race` runs this with
// full interleaving checks; Run audits every shard's books, and the file's
// census assertion (in rep.Pass) requires every slot idle at the end.
func TestStressChaosMix(t *testing.T) {
	scn, err := Load(filepath.Join("..", "..", "scenarios", "chaos-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Shards != 4 || !scn.Platform.Autoscale {
		t.Fatalf("chaos-mix drifted from the stress shape: %+v", scn)
	}
	rep, err := Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("chaos-mix assertions failed: %+v", rep.Assertions)
	}
	if len(rep.Pool.Shards) != 4 {
		t.Fatalf("pool report has %d shards", len(rep.Pool.Shards))
	}
	if rep.Pool.Cordoned == 0 {
		t.Error("kill-shard cordoned nothing — the chaos never landed")
	}
	if rep.Pool.InjectedFaults == 0 {
		t.Error("fault plan injected nothing — the chaos never landed")
	}
	if got := len(rep.Events); got != 6 {
		t.Errorf("%d events applied, want 6", got)
	}
}

// TestStressChaosMixTemplateBoot reruns the chaos-mix stress under the
// serving preset: the same spike, shard kill, fault plan, network flip,
// and floor raise must leave a clean census when every boot after the
// capture is a COW clone and each shard sheds past 2 × max_runtimes
// waiting requests (the client's retries keep every assertion).
func TestStressChaosMixTemplateBoot(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "chaos-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(src, []byte("\nplatform:\n")) != 1 {
		t.Fatal("chaos-mix.yaml has no single platform mapping to add the preset to")
	}
	scn, err := Decode(bytes.Replace(src, []byte("\nplatform:\n"), []byte("\nplatform:\n  preset: serving\n"), 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("chaos-mix assertions failed with template boot: %+v", rep.Assertions)
	}
	if rep.Totals.Overloads == 0 {
		t.Error("no request was shed: the serving preset's wait ring never filled")
	}
}

// TestStressConcurrentRuns drives several full scenario runs on separate
// engines at once. Each run must stay deterministic and isolated: no
// shared mutable state may leak between concurrently running simulations.
func TestStressConcurrentRuns(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "shard-kill.yaml")
	const n = 3
	outs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scn, err := Load(path)
			if err != nil {
				t.Error(err)
				return
			}
			rep, err := Run(scn)
			if err != nil {
				t.Error(err)
				return
			}
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = buf
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Errorf("concurrent run %d diverged from run 0", i)
		}
	}
}
