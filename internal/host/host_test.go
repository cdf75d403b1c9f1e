package host

import (
	"testing"
	"time"

	"rattrap/internal/sim"
)

func TestComputeDuration(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 2, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var done sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		h.Compute(p, 200, 1.0) // 200 mops at 100 mops/s = 2s
		done = e.Now()
	})
	e.Run()
	if done != sim.Time(2*time.Second) {
		t.Fatalf("compute took %v, want 2s", done)
	}
}

func TestComputeEfficiency(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 1, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var done sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		h.Compute(p, 100, 0.5) // half speed -> 2s
		done = e.Now()
	})
	e.Run()
	if done != sim.Time(2*time.Second) {
		t.Fatalf("compute took %v, want 2s", done)
	}
}

func TestCPUContention(t *testing.T) {
	// 3 single-core 1s jobs on 2 cores: makespan 2s, not 1s or 3s.
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 2, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var last sim.Time
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			h.Compute(p, 100, 1.0)
			if e.Now() > last {
				last = e.Now()
			}
		})
	}
	e.Run()
	if last != sim.Time(2*time.Second) {
		t.Fatalf("makespan %v, want 2s", last)
	}
}

func TestDiskSequentialAndRandom(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 1, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var seq, rnd time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := e.Now()
		h.DiskRead(p, "", 200*MB, true, 1.0) // 200MB at 100MB/s = 2s
		seq = (e.Now() - t0).Duration()
		t0 = e.Now()
		h.DiskRead(p, "", 400*KB, false, 1.0) // 100 random 4K ops at 100 IOPS = 1s
		rnd = (e.Now() - t0).Duration()
	})
	e.Run()
	if seq != 2*time.Second {
		t.Fatalf("sequential read took %v, want 2s", seq)
	}
	if rnd != time.Second {
		t.Fatalf("random read took %v, want 1s", rnd)
	}
}

func TestPageCache(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	var cold, warm time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := e.Now()
		h.DiskRead(p, "system.img", 110*MB, true, 1.0)
		cold = (e.Now() - t0).Duration()
		t0 = e.Now()
		h.DiskRead(p, "system.img", 110*MB, true, 1.0)
		warm = (e.Now() - t0).Duration()
	})
	e.Run()
	if !h.Cached("system.img") {
		t.Fatal("file not cached after read")
	}
	if warm >= cold/10 {
		t.Fatalf("cached read %v not much faster than cold %v", warm, cold)
	}
}

func TestDropCaches(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	h.WarmCache("f")
	if !h.Cached("f") {
		t.Fatal("WarmCache did not cache")
	}
	h.WarmCache("g")
	h.Evict("f")
	if h.Cached("f") || !h.Cached("g") {
		t.Fatal("Evict must drop exactly its key")
	}
	h.DropCaches()
	if h.Cached("g") {
		t.Fatal("DropCaches left file cached")
	}
}

// TestPagesAndKeysShareOneCache: a file-owned Page and a named key are the
// same residency — one count, one DropCaches, the same miss-then-hit read —
// and a nil Page is the bypass the empty key is.
func TestPagesAndKeysShareOneCache(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	var file Page
	if h.CachedPage(&file) || h.CachedPage(nil) {
		t.Fatal("a zero or nil Page is resident")
	}
	var cold, warm, bypass time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := e.Now()
		h.DiskReadPage(p, &file, 110*MB, true, 1.0)
		cold = (e.Now() - t0).Duration()
		t0 = e.Now()
		h.DiskReadPage(p, &file, 110*MB, true, 1.0)
		warm = (e.Now() - t0).Duration()
		t0 = e.Now()
		h.DiskReadPage(p, nil, 110*MB, true, 1.0)
		h.DiskReadPage(p, nil, 110*MB, true, 1.0)
		bypass = (e.Now() - t0).Duration()
	})
	e.Run()
	if warm >= cold/10 || bypass != 2*cold {
		t.Fatalf("cold %v, cached %v, two bypassing reads %v", cold, warm, bypass)
	}
	h.WarmCache("ko:binder")
	if !h.CachedPage(&file) || !h.Cached("ko:binder") || h.CachedFiles() != 2 {
		t.Fatalf("a page and a key are resident; CachedFiles = %d", h.CachedFiles())
	}
	h.WarmPage(&file) // already resident: counted once
	h.EvictPage(&file)
	h.EvictPage(&file)
	if h.CachedPage(&file) || h.CachedFiles() != 1 {
		t.Fatalf("after evicting the page: resident %v, CachedFiles = %d", h.CachedPage(&file), h.CachedFiles())
	}
	h.WarmPage(&file)
	h.DropCaches()
	if h.CachedPage(&file) || h.Cached("ko:binder") || h.CachedFiles() != 0 {
		t.Fatalf("DropCaches left something resident; CachedFiles = %d", h.CachedFiles())
	}
	h.WarmPage(&file)
	if !h.CachedPage(&file) || h.CachedFiles() != 1 {
		t.Fatal("a page cannot be cached again after DropCaches")
	}
}

func TestMemAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 1, CoreMops: 100, MemMB: 1000, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	if err := h.AllocMem(600); err != nil {
		t.Fatal(err)
	}
	if err := h.AllocMem(600); err == nil {
		t.Fatal("overcommit allocation succeeded")
	}
	if err := h.AllocMem(400); err != nil {
		t.Fatal(err)
	}
	h.FreeMem(500)
	if h.MemUsedMB() != 500 {
		t.Fatalf("used = %d, want 500", h.MemUsedMB())
	}
	if h.MemPeakMB() != 1000 {
		t.Fatalf("peak = %d, want 1000", h.MemPeakMB())
	}
}

func TestCPUUtilizationTimeline(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 4, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	h.RecordTimelines()
	// Two cores busy for the first 2 seconds.
	for i := 0; i < 2; i++ {
		e.Spawn("w", func(p *sim.Proc) { h.Compute(p, 200, 1.0) })
	}
	e.Spawn("idle", func(p *sim.Proc) { p.Sleep(4 * time.Second) })
	e.Run()
	u := h.CPUUtilization(0, sim.Time(4*time.Second), time.Second)
	if u[0] != 50 || u[1] != 50 {
		t.Fatalf("util[0:2] = %v, want 50%%", u[:2])
	}
	if u[2] != 0 || u[3] != 0 {
		t.Fatalf("util[2:4] = %v, want 0%%", u[2:])
	}
}

func TestDiskTimeline(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 1, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	h.RecordTimelines()
	e.Spawn("w", func(p *sim.Proc) {
		h.DiskRead(p, "", 300*MB, true, 1.0) // 3s at 100MB/s
	})
	e.Run()
	rates := h.DiskReadMBps(0, sim.Time(3*time.Second), time.Second)
	for i, r := range rates {
		if r < 90 || r > 110 {
			t.Fatalf("read rate bucket %d = %v MB/s, want ~100", i, r)
		}
	}
}

// A host nobody asked to record keeps no per-operation history — a serving
// platform's hosts live forever — and charts as idle. Recording switched on
// mid-run starts from the cores busy at that instant.
func TestTimelinesAreOptIn(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 4, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	e.Spawn("w", func(p *sim.Proc) {
		h.DiskRead(p, "", 100*MB, true, 1.0) // 1s
		h.DiskWrite(p, 100*MB, true, 1.0)    // 1s
		h.Compute(p, 200, 1.0)               // 2s
	})
	e.RunUntil(sim.Time(3 * time.Second))
	if h.cpuBusy != nil || h.diskRead != nil || h.diskWrite != nil {
		t.Fatal("a host that never called RecordTimelines holds a recorder")
	}
	end := sim.Time(3 * time.Second)
	for name, tl := range map[string][]float64{
		"cpu":   h.CPUUtilization(0, end, time.Second),
		"read":  h.DiskReadMBps(0, end, time.Second),
		"write": h.DiskWriteMBps(0, end, time.Second),
	} {
		if len(tl) != 3 || tl[0] != 0 || tl[1] != 0 || tl[2] != 0 {
			t.Errorf("%s timeline without a recorder = %v, want three zeros", name, tl)
		}
	}
	h.RecordTimelines() // one core is a second into its two
	e.Run()
	if u := h.CPUUtilization(end, sim.Time(5*time.Second), time.Second); u[0] != 25 || u[1] != 0 {
		t.Fatalf("utilization from a mid-run start = %v, want [25 0]", u)
	}
}

func TestDiskFIFOContention(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 1, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			h.DiskRead(p, "", 100*MB, true, 1.0)
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	if ends[0] != sim.Time(time.Second) || ends[1] != sim.Time(2*time.Second) {
		t.Fatalf("ends = %v, want serialized [1s 2s]", ends)
	}
}

func TestMemCopyFasterThanDisk(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	var mem, dsk time.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := e.Now()
		h.MemCopy(p, 100*MB)
		mem = (e.Now() - t0).Duration()
		t0 = e.Now()
		h.DiskRead(p, "", 100*MB, true, 1.0)
		dsk = (e.Now() - t0).Duration()
	})
	e.Run()
	if mem >= dsk {
		t.Fatalf("memcopy %v not faster than disk %v", mem, dsk)
	}
}

func TestConfigs(t *testing.T) {
	s := CloudServer()
	if s.Cores != 12 || s.MemMB != 16384 {
		t.Fatalf("CloudServer = %+v, want 12 cores / 16 GB", s)
	}
	d := MobileDevice("phone-1")
	if d.CoreMops >= s.CoreMops {
		t.Fatal("mobile core should be slower than server core")
	}
}
