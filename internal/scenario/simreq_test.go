package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// simChurn loads the benchmark's sim-churn workload — 50 000 devices on
// three replicated autoscaled shards under a chaos timeline — shrunk k
// times in fleet and in time alike: every cohort's devices and duration
// and every event's instant and length divided by k. The arrival rate, and
// with it how often runtimes sit idle long enough to be reaped, stays the
// workload's; dividing the fleet alone would make most arrivals cold.
func simChurn(tb testing.TB, k int) *Scenario {
	tb.Helper()
	scn, err := Load(filepath.Join("..", "..", "benchmark", "scenarios", "sim-churn.yaml"))
	if err != nil {
		tb.Fatal(err)
	}
	d := time.Duration(k)
	for i := range scn.Fleet {
		c := &scn.Fleet[i]
		c.Devices, c.Variants = max(1, c.Devices/k), max(1, c.Variants/k)
		c.Start, c.Duration = c.Start/d, c.Duration/d
	}
	for i := range scn.Events {
		ev := &scn.Events[i]
		ev.At, ev.Dur = ev.At/d, ev.Dur/d
	}
	return scn
}

// runCounted runs scn and returns its report and the heap objects and bytes
// the run allocated.
func runCounted(tb testing.TB, scn *Scenario) (rep *Report, mallocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(scn)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return rep, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// simChurnFifthReport is the SHA-256 of the JSON report (as reportBytes
// renders it) of sim-churn shrunk five times at the file's seed. The
// benchmark only compares its own repeats with one another, so this is
// where a change to the simulated request path that moves a virtual
// result shows.
const simChurnFifthReport = "6753cdd04a7c52ab84e4d6ae3b8e77c5b74d7f8372778df2e7e73497f5a1b9ec"

// simArrivalAllocs is what one arrival of sim-churn shrunk five times
// allocates, the cluster's set-up and the timeline's migrations included
// (at full size the same count is the benchmark's allocs_per_req). Before
// the simulated request path was cut down it was 42.8 here and 40.6 at
// full size; the sites and what each lost are in DESIGN.md, "Where a
// simulated request allocates". It was 25.8 until a boot stopped
// allocating its Binder nodes, module records and device handles one by
// one (DESIGN.md, "Cold path"), 23.9 until the code push, the arrival and
// the shard session stopped allocating per chunk, per link hook and per
// session wrapper, 17.4 until what is per code, per image or per timer
// was built once: an AID per code variant, image paths per process, one
// autoscaler timer, the arrival's proc, body and link as one object, and
// a queued request's session and waiter as one object, and 10.4 until the
// post-boot scan, the idle reap, a staging's chunk writes and a fan-out ran
// on procs their records own instead of spawned ones, each with a closure
// and most with a name built per spawn (a staging holds a single write
// inline). It was 9.5 until every warehouse entry became a manifest: an
// export no longer derives a synthetic one, a landing reads its missing
// blocks into a stack buffer, and a single missing block is written on the
// landing's own proc, with no staging record. It was 8.5 until the runner
// ran each distinct task's kernel once (workload.Memo): every arrival
// solved the same pinned system again, and the solve built its Output
// string each time.
const simArrivalAllocs = 7.5

// simArrivalBytes is the heap bytes (MemStats.TotalAlloc) one arrival of the
// same run allocates; the fence leaves it 10 %. It was 1 637 while every
// runtime's namespace held two logcat rings that its boot, each code load
// and each finished task wrote a line into, a warm runtime's ring doubling
// toward 256 KiB.
const simArrivalBytes = 1330

// TestSimArrivalAllocs fences the allocations of one simulated request
// end to end: the arrival proc and its link, the device exchange, routing,
// dispatch, the code push and its replica fan-out and the task's memoized
// outcome, in objects and in bytes. The same run's report is held to
// simChurnFifthReport.
func TestSimArrivalAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one set of pool slots
	scn := simChurn(t, 5)
	runCounted(t, simChurn(t, 50)) // grows the worker pool and the solve's caches
	rep, mallocs, bytes := runCounted(t, scn)
	per := float64(mallocs) / float64(rep.Totals.Arrivals)
	perB := float64(bytes) / float64(rep.Totals.Arrivals)
	t.Logf("%.2f allocations, %.0f bytes per arrival over %d arrivals", per, perB, rep.Totals.Arrivals)
	if per > simArrivalAllocs+1 {
		t.Errorf("a sim-churn arrival allocates %.2f objects, fence is %.1f + 1", per, simArrivalAllocs)
	}
	if perB > simArrivalBytes*1.1 {
		t.Errorf("a sim-churn arrival allocates %.0f bytes, fence is %d + 10 %%", perB, simArrivalBytes)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(append(buf, '\n'))); sum != simChurnFifthReport {
		t.Errorf("sim-churn shrunk five times reports %s, pinned %s: a virtual result moved", sum, simChurnFifthReport)
	}
}

// TestSimChurnRunsOneKernel: every sim-churn arrival solves the same pinned
// system, so a run's memo runs its kernel once, and the outcome every
// arrival's runtime was handed is still the kernel's when the run ends.
func TestSimChurnRunsOneKernel(t *testing.T) {
	r, err := newRunner(simChurn(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	rep, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if n := r.tasks.Len(); n != 1 {
		t.Errorf("%d arrivals stored %d tasks, want 1", rep.Totals.Arrivals, n)
	}
	if err := r.tasks.Check(); err != nil {
		t.Error(err)
	}
}

// TestMemoHoldsOnlyPinnedTasks: mixed-apps' office cohort draws fresh
// params for all four apps, Linpack among them, and its cellular cohort
// pins Linpack, so the run's memo holds the one pinned task and no other.
func TestMemoHoldsOnlyPinnedTasks(t *testing.T) {
	scn, err := Load(filepath.Join("..", "..", "scenarios", "mixed-apps.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(scn)
	if err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	if _, err := r.finish(); err != nil {
		t.Fatal(err)
	}
	if n := r.tasks.Len(); n != 1 {
		t.Errorf("mixed-apps stored %d tasks, want its one pinned task", n)
	}
}

// poolKeeps reports whether sync.Pool hands back what was put: under the
// race detector it drops a quarter of all Puts at random, and the solve's
// pooled scratch then shows up in every count.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// BenchmarkSimRequest runs the whole sim-churn workload per iteration and
// reports what one simulated arrival costs the simulator: wall-clock ns,
// heap bytes and heap objects (make bench-simreq). These are the
// benchmark's sim-churn cpu_us_per_req, alloc_bytes_per_req and
// allocs_per_req measured in-process, without the benchmark's harness.
func BenchmarkSimRequest(b *testing.B) {
	scn := simChurn(b, 1)
	runCounted(b, simChurn(b, 50)) // warm, as the benchmark's set-up does
	var before, after runtime.MemStats
	arrivals := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(scn)
		if err != nil {
			b.Fatal(err)
		}
		arrivals += rep.Totals.Arrivals
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(arrivals)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/arrival")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/arrival")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/arrival")
}
