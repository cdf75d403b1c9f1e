package realtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestConnTeardownAbortsQueuedWaiters pins the abort wiring: with a single
// runtime pinned by a slow-loris device, a pack of devices parks in the
// dispatcher's wait ring — then every one of them hangs up. Their
// connection teardowns must fire the per-connection abort signal, so the
// queued waiters return ErrAborted instead of each taking a turn executing
// for a caller that is gone. When the loris is cut off by its read deadline,
// the release must skip the corpse waiters and a fresh device must be
// served at once — not after a parade of ghost executions.
func TestConnTeardownAbortsQueuedWaiters(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 1
	s := newVServer(t, 1, cfg, 1)
	pl := s.pr.cl.Shard(0)

	// Linpack's code goes into the warehouse, so every later Linpack
	// request could execute without its device.
	s.at(0, "warm", func(p *sim.Proc) {
		d := s.connect(p, "warm")
		defer d.hangUp()
		d.offload(linpack, 0)
	})
	// The loris claims the only runtime, is told to push code, and goes
	// silent until the read deadline cuts it off.
	s.at(10*time.Second, "loris", func(p *sim.Proc) {
		d := s.connect(p, "loris")
		defer d.hangUp()
		d.send(execFrame(chess, 0))
		for _, err := d.recv(); err == nil; _, err = d.recv() {
		}
	})
	// The pack queues behind the pinned slot, then vanishes.
	const doomed = 6
	for i := 0; i < doomed; i++ {
		i := i
		s.at(11*time.Second, fmt.Sprintf("doomed-%d", i), func(p *sim.Proc) {
			d := s.connect(p, fmt.Sprintf("doomed-%d", i))
			d.send(execFrame(linpack, i+1))
			p.Sleep(time.Second)
			d.hangUp()
		})
	}
	s.at(12*time.Second-time.Millisecond, "probe", func(p *sim.Proc) {
		if q := pl.QueueLength(); q != doomed {
			t.Errorf("queue length %d before the hang-ups, want the whole pack (%d)", q, doomed)
		}
	})
	// A fresh device is served once the loris deadline frees the slot —
	// one release, straight past the aborted corpses.
	var servedAt sim.Time
	s.at(13*time.Second, "fresh", func(p *sim.Proc) {
		d := s.connect(p, "fresh")
		defer d.hangUp()
		if res, _, err := d.offload(linpack, 99); err != nil || res.Err != "" || res.Output == "" {
			t.Errorf("fresh request after the abort storm failed: %+v, %v", res, err)
		}
		servedAt = p.E.Now()
	})
	s.run()
	if n := pl.DB().Snapshot().TotalExec; n != 2 {
		t.Fatalf("%d executions, want the warm-up's and the fresh device's: the aborted waiters ran", n)
	}
	if servedAt < sim.Time(10*time.Second+readTimeout) {
		t.Fatalf("fresh device served at %v, before the loris released the only runtime", servedAt)
	}
}

// TestShardedAutoscaleConcurrent is the elastic-pool -race stress: a
// 4-shard server with the control loop running on every shard, driven by
// 8 concurrent pipelined devices with unique AIDs. All requests must
// succeed while the loops grow the pools, and once the load stops every
// shard must shrink back to zero.
func TestShardedAutoscaleConcurrent(t *testing.T) {
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = 2
	cfg.MinRuntimes = 0
	cfg.Autoscale = core.AutoscaleConfig{Enabled: true, Interval: 100 * time.Millisecond}
	srv, ln := startServerCfg(t, cfg, Options{PipelineDepth: 2, Shards: 4})
	app, _ := workload.ByName(workload.NameLinpack)
	baseAID := offload.AID(app.Name(), app.CodeSize())

	const (
		devices  = 8
		requests = 6
	)
	var wg sync.WaitGroup
	errs := make([]error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = driveShardedDevice(ln.Addr().String(), fmt.Sprintf("as-dev-%d", i),
				fmt.Sprintf("%s#d%d", baseAID, i), app, requests)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	// The DB census is no good for counting here — the control loops
	// reclaim idle runtimes (and their records) as soon as the load
	// stops — so count served requests at the server's histogram.
	if n := waitLatencyCount(srv, devices*requests); n != devices*requests {
		t.Fatalf("latency observations = %d, want %d", n, devices*requests)
	}

	// Load gone: every shard's control loop must scale its pool to zero.
	// Virtual time is paced at 200x, so the shrink hysteresis elapses in
	// wall milliseconds; the probe looks once per virtual second.
	deadline := time.Now().Add(15 * time.Second)
	for {
		total := 0
		srv.Driver().Do("probe-pool", func(p *sim.Proc) {
			p.Sleep(time.Second)
			for s := 0; s < srv.Cluster().Shards(); s++ {
				total += srv.Cluster().Shard(s).RuntimeCount()
			}
		})
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pools never scaled to zero: %d runtime(s) left", total)
		}
	}
}
