package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// parkSleep is Sleep without the inline branch: it always schedules the
// wake-up event and parks. It is the reference the equivalence property
// compares against. (Rewriting Sleep as After(d, sig.Fire) + Wait(sig) would
// also always park, but is not equivalent to a parked Sleep when other
// events share the wake instant: Fire re-queues the waiter behind them.)
func parkSleep(p *Proc, d time.Duration) {
	p.E.After(d, p.dispatch)
	p.park()
}

// parkWait is Wait as it was before a fired signal woke a proc through the
// proc's own event: the proc registers its dispatch as a callback, and Fire
// allocates an event for it like for any other.
func parkWait(p *Proc, s *Signal) {
	if s.Fired() {
		return
	}
	s.OnFire(p.dispatch)
	p.park()
}

// blocking is the pair of primitives a model run parks with.
type blocking struct {
	sleep func(*Proc, time.Duration)
	wait  func(*Proc, *Signal)
}

var (
	parkingRef = blocking{sleep: parkSleep, wait: parkWait}
	shipped    = blocking{sleep: (*Proc).Sleep, wait: (*Proc).Wait}
)

// runSleepModel runs a seeded random model — procs that sleep (Sleep(0)
// included), contend on resources for one unit or all of them, wait on and
// fire signals that also carry callbacks, schedule and cancel events — with
// the given primitives, driven by Run or by RunUntil in random slices. It
// returns every resume and event firing as "now proc step" lines and the
// final clock.
func runSleepModel(t *testing.T, seed int64, prims blocking, sliced bool) ([]string, Time) {
	t.Helper()
	const (
		procs = 6
		steps = 40
	)
	// Durations are small multiples of one unit so that wake-ups, signal
	// fires and plain events collide on the same instant all the time.
	delays := []time.Duration{0, 0, 1, 1, 2, 3, 5, 8}
	delay := func(r *rand.Rand) time.Duration { return delays[r.Intn(len(delays))] * time.Millisecond }

	e := NewEngine(seed)
	var log []string
	note := func(who string, step int) { log = append(log, fmt.Sprintf("%v %s %d", e.Now(), who, step)) }

	res := []*Resource{NewResource(e, "r1", 1), NewResource(e, "r2", 2)}
	sigs := make([]*Signal, 3)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	// fire releases slot k's waiters and arms a fresh signal in the slot.
	fire := func(k int, s *Signal) {
		if !s.Fired() {
			s.Fire()
			if sigs[k] == s {
				sigs[k] = NewSignal(e)
			}
		}
	}

	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("p%d", i)
		r := rand.New(rand.NewSource(seed*131 + int64(i))) // decisions do not depend on interleaving
		var stash []*Event
		e.Spawn(name, func(p *Proc) {
			for step := 0; step < steps; step++ {
				switch r.Intn(9) {
				case 0, 1:
					prims.sleep(p, delay(r))
				case 2:
					rs := res[r.Intn(len(res))]
					rs.Acquire(p, 1)
					prims.sleep(p, delay(r))
					rs.Release(1)
				case 3:
					k := r.Intn(len(sigs))
					s := sigs[k]
					e.After(delay(r), func() { fire(k, s) }) // nobody waits forever
					prims.wait(p, s)
				case 4:
					k := r.Intn(len(sigs))
					fire(k, sigs[k])
				case 5:
					id := step
					stash = append(stash, e.After(delay(r), func() { note(name+"-ev", id) }))
				case 6:
					if len(stash) > 0 {
						stash[r.Intn(len(stash))].Cancel() // possibly fired already: a no-op
					}
				case 7:
					// The whole of r2: queues behind single-unit holders, and
					// single-unit requests queue behind it (no barging).
					res[1].Acquire(p, 2)
					prims.sleep(p, delay(r))
					res[1].Release(2)
				case 8:
					// A callback among the waiting procs of a signal.
					id := step
					sigs[r.Intn(len(sigs))].OnFire(func() { note(name+"-cb", id) })
				}
				note(name, step)
			}
		})
	}

	if !sliced {
		e.Run()
	} else {
		dr := rand.New(rand.NewSource(seed ^ 0x5eed))
		var until Time
		for {
			if _, ok := e.NextEventAt(); !ok {
				break
			}
			until += Time(dr.Intn(9)) * Time(time.Millisecond)
			e.RunUntil(until)
			if e.Now() != until {
				t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, until, e.Now())
			}
		}
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("seed %d: %d procs never finished", seed, n)
	}
	return log, e.Now()
}

// sleepModelDigest is the SHA-256 of every log line TestSleepInlineEquivalence
// produces with the shipped primitives, taken with this file at 16c3f11,
// where a wait and a queued acquire still woke the proc through a closure
// and an allocated event. Resource has no second implementation to compare
// with, so this is what holds the order of its hand-offs still.
const sleepModelDigest = "157caaae6b19a0022bb26d593f6a87fdaee8122b4d54356d5963d2eaaabc9c70"

// TestSleepInlineEquivalence is the property behind the inline branch of
// Sleep and behind waking a proc through its own event: neither changes the
// order or the instant of anything the model can observe.
func TestSleepInlineEquivalence(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 60; seed++ {
		for _, sliced := range []bool{false, true} {
			want, wantEnd := runSleepModel(t, seed, parkingRef, sliced)
			got, gotEnd := runSleepModel(t, seed, shipped, sliced)
			if gotEnd != wantEnd {
				t.Fatalf("seed %d sliced=%v: final clock %v, always-park reference %v", seed, sliced, gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("seed %d sliced=%v: logs diverge at line %d of %d: got %q, reference %q",
							seed, sliced, i, len(want), append(got, "<end>")[i], want[i])
					}
				}
				t.Fatalf("seed %d sliced=%v: %d extra log lines", seed, sliced, len(got)-len(want))
			}
			for _, line := range got {
				fmt.Fprintln(h, line)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sleepModelDigest {
		t.Fatalf("model logs hash to %s, want %s: the shipped primitives and the reference agree with each other but not with the engine this was pinned on", got, sleepModelDigest)
	}
}

// TestSleepPastRunUntil: a sleep that reaches beyond RunUntil's bound must
// not drag the clock past it; the proc resumes in a later RunUntil, at its
// own instant.
func TestSleepPastRunUntil(t *testing.T) {
	e := NewEngine(1)
	var woke Time = -1
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		woke = e.Now()
		p.Sleep(10 * time.Millisecond)
	})
	e.RunUntil(Time(4 * time.Millisecond))
	if e.Now() != Time(4*time.Millisecond) || woke != -1 {
		t.Fatalf("after RunUntil(4ms): now=%v woke=%v, want 4ms and still asleep", e.Now(), woke)
	}
	e.RunUntil(Time(12 * time.Millisecond))
	if e.Now() != Time(12*time.Millisecond) || woke != Time(10*time.Millisecond) {
		t.Fatalf("after RunUntil(12ms): now=%v woke=%v, want 12ms and woken at 10ms", e.Now(), woke)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("second sleep (until 20ms) finished inside RunUntil(12ms)")
	}
	e.Run()
	if e.Now() != Time(20*time.Millisecond) || e.LiveProcs() != 0 {
		t.Fatalf("after Run: now=%v live=%d, want 20ms and 0", e.Now(), e.LiveProcs())
	}
}

// TestRunUntilCancelledHead: a cancelled event at the head of the queue
// must not let RunUntil run the live event behind it early.
func TestRunUntilCancelledHead(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Millisecond, func() {}).Cancel()
	fired := false
	e.After(5*time.Millisecond, func() { fired = true })
	e.RunUntil(Time(2 * time.Millisecond))
	if fired || e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("RunUntil(2ms): fired=%v now=%v, want the 5ms event pending and the clock at 2ms", fired, e.Now())
	}
}

// TestSleepTieBreak: an event already queued at exactly the wake instant
// has a lower seq than the wake-up would get, so it runs before the sleeper
// continues — Sleep must park. A cancelled event does not count.
func TestSleepTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.After(5*time.Millisecond, func() { order = append(order, "event") })
	e.After(2*time.Millisecond, func() { t.Error("cancelled event fired") }).Cancel()
	var parked, inline bool
	e.Spawn("sleeper", func(p *Proc) {
		before := e.seq
		p.Sleep(5 * time.Millisecond)
		parked = e.seq != before // a wake-up event was allocated
		order = append(order, "sleeper")

		// A cancelled event before the next wake instant, alone in the
		// queue, must not force a park.
		e.After(time.Millisecond, func() { t.Error("cancelled event fired") }).Cancel()
		before = e.seq
		p.Sleep(3 * time.Millisecond)
		inline = e.seq == before
	})
	e.Run()
	if want := []string{"event", "sleeper"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if !parked {
		t.Error("Sleep went inline although an event was queued at the wake instant")
	}
	if !inline {
		t.Error("a cancelled event at the heap head blocked the inline path")
	}
	if e.Now() != Time(8*time.Millisecond) {
		t.Fatalf("final clock %v, want 8ms", e.Now())
	}
}
