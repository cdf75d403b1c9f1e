package host

import (
	"testing"
	"testing/quick"
	"time"

	"rattrap/internal/sim"
)

func TestEfficiencyValidation(t *testing.T) {
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	e.Spawn("w", func(p *sim.Proc) {
		for _, bad := range []float64{0, -1, 1.5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("efficiency %v did not panic", bad)
					}
				}()
				h.Compute(p, 10, bad)
			}()
		}
	})
	e.Run()
}

func TestDirectIOReadsDoNotPollute(t *testing.T) {
	// Empty cache keys must never populate the cache.
	e := sim.NewEngine(1)
	h := New(e, CloudServer())
	e.Spawn("w", func(p *sim.Proc) {
		h.DiskRead(p, "", 50*MB, true, 1.0)
	})
	e.Run()
	if h.Cached("") {
		t.Fatal("empty key cached")
	}
}

func TestVirtualizationPenaltyDoesNotOccupyDisk(t *testing.T) {
	// Two concurrent reads at efficiency 0.5: the physical disk serializes
	// only the raw media time; emulation latency overlaps. Makespan must
	// be well under 2 × (size/bw/eff).
	e := sim.NewEngine(1)
	h := New(e, Config{Name: "m", Cores: 4, CoreMops: 100, MemMB: 1024, DiskSeqMBps: 100, DiskRandIOPS: 100, MemBWMBps: 1000})
	var last sim.Time
	for i := 0; i < 2; i++ {
		e.Spawn("r", func(p *sim.Proc) {
			h.DiskRead(p, "", 100*MB, true, 0.5) // raw 1s, total 2s each
			if e.Now() > last {
				last = e.Now()
			}
		})
	}
	e.Run()
	// Fully serialized at inflated time would be 4s; overlap gives ≤3s.
	if last > sim.Time(3*time.Second) {
		t.Fatalf("makespan %v: emulation latency serialized on the disk", last)
	}
}

// Property: disk read time is monotone in size for any efficiency.
func TestPropertyDiskTimeMonotone(t *testing.T) {
	f := func(a, b uint32, effRaw uint8) bool {
		eff := 0.1 + float64(effRaw%90)/100.0
		sa, sb := Bytes(a%(1<<26))+1, Bytes(b%(1<<26))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		e := sim.NewEngine(1)
		h := New(e, CloudServer())
		var da, db time.Duration
		e.Spawn("w", func(p *sim.Proc) {
			t0 := e.Now()
			h.DiskRead(p, "", sa, true, eff)
			da = (e.Now() - t0).Duration()
			t0 = e.Now()
			h.DiskRead(p, "", sb, true, eff)
			db = (e.Now() - t0).Duration()
		})
		e.Run()
		return da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory accounting never goes negative or above installed.
func TestPropertyMemAccountingBounded(t *testing.T) {
	f := func(ops []int16) bool {
		e := sim.NewEngine(1)
		h := New(e, Config{Name: "m", Cores: 1, CoreMops: 1, MemMB: 1000, DiskSeqMBps: 1, DiskRandIOPS: 1, MemBWMBps: 1})
		held := 0
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				if err := h.AllocMem(n % 400); err == nil {
					held += n % 400
				}
			} else {
				free := (-n) % 400
				if free > held {
					free = held
				}
				h.FreeMem(free)
				held -= free
			}
			if h.MemUsedMB() != held || held < 0 || held > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
