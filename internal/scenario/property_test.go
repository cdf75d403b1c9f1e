package scenario

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rattrap/internal/obs"
	"rattrap/internal/sim"
)

var propSeeds = flag.Int("seeds", 0, "how many seeded scenario files TestPropertyReplicasAndChunkBooks draws (0: 300, 100 under the race detector)")

// propWords are the event words the property draws a timeline from.
var propWords = []EventKind{EvAddShard, EvRemoveShard, EvFailShard, EvKillShard, EvSetFloor, EvFaultPlan, EvClearFaults}

// propFile is one drawn scenario: three shards of one runtime each at R = 2
// (so requests park in wait rings), one cohort offloading twelve Linpack
// variants (sharing the app's library chunks), and events, one YAML item each.
type propFile struct {
	seed              int64
	devices, requests int
	duration          time.Duration
	chunked           bool
	events            []string
}

// text is the file Decode reads.
func (f propFile) text() string {
	return fmt.Sprintf(`name: property
seed: %d
shards: 3
platform:
  replicas: 2
  max_runtimes: 1
client:
  max_attempts: 4
fleet:
  - cohort: phones
    devices: %d
    requests_per_device: %d
    network: lan-wifi
    variants: 12
    linpack_order: 8
    chunked_push: %t
    duration: %dms
events:
%sassertions:
  - type: census
`, f.seed, f.devices, f.requests, f.chunked, f.duration.Milliseconds(), strings.Join(f.events, ""))
}

// drawFile draws seed's file: 2-6 devices of 1-5 requests each over 1-4 s,
// and 1-30 events over the fleet's window and 1.5 s past it, naming any
// shard added so far.
func drawFile(seed int64) propFile {
	rng := rand.New(rand.NewSource(seed))
	f := propFile{
		seed:     seed,
		devices:  2 + rng.Intn(5),
		requests: 1 + rng.Intn(5),
		duration: time.Duration(1000+rng.Intn(3000)) * time.Millisecond,
		chunked:  rng.Intn(2) == 0,
	}
	ats := make([]int, 1+rng.Intn(30))
	for i := range ats {
		ats[i] = rng.Intn(int(f.duration.Milliseconds()) + 1500)
	}
	sort.Ints(ats)
	plans, shards := PlanNames(), 3
	for _, at := range ats {
		word := propWords[rng.Intn(len(propWords))]
		ev := fmt.Sprintf("  - at: %dms\n    action: %s\n", at, word)
		switch word {
		case EvAddShard:
			shards++
		case EvRemoveShard, EvFailShard, EvKillShard:
			ev += fmt.Sprintf("    shard: %d\n", rng.Intn(shards))
		case EvSetFloor:
			ev += fmt.Sprintf("    max_runtimes: %d\n", rng.Intn(3))
		case EvFaultPlan:
			ev += "    plan: " + plans[rng.Intn(len(plans))] + "\n"
		}
		f.events = append(f.events, ev)
	}
	return f
}

// checked is what a run leaves to count coverage from.
type checked struct {
	rep    *Report
	reg    *obs.Registry // every shard's instruments
	served bool          // finish checked the served AIDs: no exemption applied
}

// check runs one scenario file and returns its first failure, a panic
// included: an audit or a backward epoch after an event or on a 100 ms grid
// (both from the file, so a replay repeats them), finish's checks, or the
// file's own assertions.
func check(text string) (out checked, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	scn, err := Decode([]byte(text))
	if err != nil {
		return out, err
	}
	r, err := newRunner(scn)
	if err != nil {
		return out, err
	}
	out.reg = obs.NewRegistry()
	r.cl.SetObs(out.reg)
	var failed error
	var epoch uint64
	audit := func() {
		if ep := r.cl.Epoch(); failed == nil && ep < epoch {
			failed = fmt.Errorf("epoch %d after %d", ep, epoch)
		} else if failed == nil {
			epoch, failed = ep, r.cl.Audit()
		}
	}
	var end time.Duration
	for _, ev := range scn.Events {
		r.e.At(sim.Time(ev.At), audit)
		end = max(end, ev.At)
	}
	for _, c := range scn.Fleet {
		end = max(end, c.Start+c.Duration)
	}
	for at := time.Duration(0); at <= end+2*time.Second; at += 100 * time.Millisecond {
		r.e.At(sim.Time(at), audit)
	}
	r.e.Run()
	if failed != nil {
		return out, failed
	}
	if out.rep, err = r.finish(); err != nil {
		return out, err
	}
	out.served = !r.lostAll && r.cl.MigrationStats().Failures < scn.Platform.Replicas
	for _, as := range out.rep.Assertions {
		if !as.Pass {
			return out, fmt.Errorf("assertion %s failed: want %s, got %s", as.Type, as.Want, as.Got)
		}
	}
	return out, nil
}

// masked are the parts of a failure naming one shard, entry, block or count.
var masked = regexp.MustCompile(`[0-9a-f]{8,}|[0-9]+`)

// errClass is what a shrunk file must fail with: the failure masked, up to
// its first comma or line break.
func errClass(err error) string {
	s := masked.ReplaceAllString(err.Error(), "#")
	if i := strings.IndexAny(s, ",\n"); i >= 0 {
		s = s[:i]
	}
	return s
}

// shrink reduces a failing file by delta debugging (Zeller and Hildebrandt,
// TSE 2002) over its events, then its devices and requests. A candidate
// counts only when it decodes and fails in the same class.
func shrink(f propFile, class string) propFile {
	fails := func(g propFile) bool {
		_, err := check(g.text())
		return err != nil && errClass(err) == class
	}
	f.events = ddmin(f.events, func(evs []string) bool {
		g := f
		g.events = evs
		return fails(g)
	})
	for _, n := range []*int{&f.devices, &f.requests} {
		for was, k := *n, 1; k < was; k++ {
			if *n = k; fails(f) {
				break
			}
			*n = was
		}
	}
	return f
}

// ddmin returns a 1-minimal subsequence of items that still fails: no
// single item can be left out of it. items itself must fail.
func ddmin[T any](items []T, fails func([]T) bool) []T {
	for n := 2; len(items) >= 2; {
		size := (len(items) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(items) && !reduced; lo += size {
			hi := min(lo+size, len(items))
			if sub := slices.Clone(items[lo:hi]); fails(sub) {
				items, n, reduced = sub, 2, true
			} else if rest := slices.Concat(items[:lo], items[hi:]); fails(rest) {
				items, n, reduced = rest, max(n-1, 2), true
			}
		}
		if !reduced {
			if n >= len(items) {
				break
			}
			n = min(2*n, len(items))
		}
	}
	return items
}

// Property: over seeded files whose timelines join, drain, fail and cordon
// shards, set the pool ceiling (0 included) and switch fault plans while
// devices push, delta-push and execute, check passes; a failing file is
// printed shrunk. Every word and plan must run, and some file must have its
// served AIDs checked, a chunk write dropped, a request queued, a delta push.
func TestPropertyReplicasAndChunkBooks(t *testing.T) {
	seeds := *propSeeds
	if seeds == 0 && poolKeeps() {
		seeds = 300
	} else if seeds == 0 { // the race detector: the engine runs one proc at a time
		seeds = 100
	}
	ran := map[string]int64{} // by event word, plan, instrument (shard prefix cut) and "served"
	for seed := int64(1); seed <= int64(seeds); seed++ {
		f := drawFile(seed)
		c, err := check(f.text())
		if err != nil {
			small := shrink(f, errClass(err))
			t.Fatalf("seed %d: %v\nshrunk to %d events:\n%s", seed, err, len(small.events), small.text())
		}
		for _, ev := range c.rep.Events {
			ran[ev.Action]++
			if ev.Action == string(EvFaultPlan) {
				ran[ev.Detail]++
			}
		}
		if c.served {
			ran["served"]++
		}
		ran["fs.write:drop"] += int64(c.rep.Pool.FaultStats["fs.write:drop"])
		snap := c.reg.Snapshot()
		for name, n := range snap.Counters {
			_, name, _ = strings.Cut(name, ".")
			ran[name] += n
		}
		for name, h := range snap.Histograms {
			_, name, _ = strings.Cut(name, ".")
			ran[name] += h.Count
		}
	}
	need := append([]string{"served", "fs.write:drop", "dispatch.queued", "stage." + obs.StageChunkStage}, PlanNames()...)
	for _, w := range propWords {
		need = append(need, string(w))
	}
	var got strings.Builder
	for _, k := range need {
		fmt.Fprintf(&got, " %s=%d", k, ran[k])
		if ran[k] == 0 {
			t.Errorf("%s never ran over %d files", k, seeds)
		}
	}
	t.Logf("%d files:%s", seeds, got.String())
}

// TestRegress replays under check every file in scenarios/regress/: each
// is a failure the property shrank, checked in with its fix.
func TestRegress(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "regress", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no regress files: %v", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".yaml"), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := check(string(data)); err != nil {
				t.Error(err)
			}
		})
	}
}
