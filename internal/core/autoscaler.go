package core

import (
	"time"

	"rattrap/internal/sim"
)

// This file is the capacity half of the elastic-pool subsystem: a
// control loop, driven by the platform's own sim engine so it is
// virtual-time deterministic, that grows and shrinks the runtime pool
// between MinRuntimes and MaxRuntimes from two signals the dispatcher
// already maintains — the FIFO wait-ring depth (smoothed by an EWMA)
// and the slot-hold-time EWMA behind the overload retry-after hint.
//
// The loop is edge-triggered, not free-running: a tick is scheduled
// only when some event created work for it (a request queued, a slot
// went idle, a cordon fired, the pool dropped below its floor), and a
// tick reschedules itself only while there is still work to converge
// on. When the platform quiesces the loop goes silent. That matters
// beyond efficiency: sim.Engine.Run terminates when the event queue
// drains, so a permanently re-arming timer would hang every
// virtual-time experiment.
//
// Capacity moves through two mechanisms:
//
//   - the elastic boot ceiling (limit): the request path boots a new
//     runtime synchronously while the pool is under it, so fresh
//     arrivals during a burst are served without waiting for the next
//     tick. The ceiling rises toward the demand target by at most
//     growPerTick per tick and decays by one once demand passes, so a
//     burst must re-earn its capacity.
//   - backlog boots: requests already parked in the wait ring cannot
//     re-enter the request path, so the tick starts boots for the
//     backlog directly (backlogBoot), which hand the fresh runtimes to
//     the oldest live waiters.
//
// Shrinking is hysteretic: only after shrinkAfter consecutive ticks of
// surplus does the loop stop one idle runtime per tick (longest-idle
// first), down to MinRuntimes — with MinRuntimes zero an idle platform
// scales to nothing and the next request pays one cold boot.
//
// The loop's tunables are constants; no caller varies them.
const (
	// tickInterval is the virtual-time spacing between control ticks.
	tickInterval = 200 * time.Millisecond
	// growPerTick caps how many runtimes one tick may add, bounding boot
	// storms on a demand spike.
	growPerTick = 2
	// shrinkAfter is the hysteresis: consecutive surplus ticks before the
	// loop starts stopping idle runtimes.
	shrinkAfter = 4
	// queueAlpha is the EWMA weight on the wait-ring depth signal; higher
	// reacts faster.
	queueAlpha = 0.5
	// cordonThreshold is how many consecutive failures (boot, exec or
	// teardown) cordon a runtime for drain-and-replace. Without the
	// autoscaler cordoning is off (failures are still counted).
	cordonThreshold = 3
)

// backlog-drain sizing: the loop aims to clear the smoothed backlog
// within this many control intervals, assuming each runtime retires one
// request per hold-time.
const drainWindowTicks = 4

// bootGiveUp is how many consecutive failed backlog boots park the grow
// path. Without it a platform whose boots always fail (persistent
// injected fault, broken image) would retry every tick forever — and in
// virtual time that means Engine.Run never terminates. A later kick
// (new queue pressure) resets the count and tries again.
const bootGiveUp = 8

type autoscaler struct {
	pl *Platform

	limit   int     // elastic boot ceiling for the request path
	qEWMA   float64 // smoothed wait-ring depth
	surplus int     // consecutive ticks with capacity above target
	backoff int     // ticks the grow path still sits out after a failed boot
	strikes int     // consecutive failed backlog boots (bootGiveUp)
	pending bool    // timer is armed
	ticks   int     // lifetime tick count (tests, debugging)
	// timer runs tick; pending keeps it armed at most once at a time, so
	// one timer serves every tick of the platform's life.
	timer *sim.Timer
}

func newAutoscaler(pl *Platform) *autoscaler {
	a := &autoscaler{pl: pl}
	a.limit = a.floorLimit()
	a.timer = pl.E.NewTimer(a.tick)
	return a
}

// floorLimit is the boot ceiling's resting value: at least one, so a
// scaled-to-zero pool can still serve a cold request synchronously.
func (a *autoscaler) floorLimit() int {
	if a.pl.cfg.MinRuntimes > 1 {
		return a.pl.cfg.MinRuntimes
	}
	return 1
}

// kickScaler schedules a control tick if none is pending. Every event
// that can create work for the loop calls it; with the autoscaler off it
// is one nil check.
func (pl *Platform) kickScaler() {
	a := pl.scaler
	if a == nil || a.pending {
		return
	}
	a.pending = true
	a.timer.After(tickInterval)
}

// poolCap is the dispatcher's current boot ceiling: the static
// MaxRuntimes, or the autoscaler's elastic limit when one is running.
func (pl *Platform) poolCap() int {
	if pl.scaler != nil {
		return pl.scaler.limit
	}
	return pl.cfg.MaxRuntimes
}

// schedulable counts the runtimes that can serve (or will shortly serve)
// requests: idle, active, and booting, minus cordoned slots awaiting
// drain. Draining slots are already gone for scheduling purposes.
func (pl *Platform) schedulable() int {
	n := pl.db.StateCount(LifecycleIdle) + pl.db.StateCount(LifecycleActive) +
		pl.db.StateCount(LifecycleBooting) - pl.cordonedLive
	if n < 0 {
		n = 0
	}
	return n
}

// target is the schedulable capacity the current signals ask for:
// enough runtimes for everything running now, plus enough to clear the
// smoothed backlog within drainWindowTicks intervals at one request per
// hold-time per runtime, clamped to [MinRuntimes, MaxRuntimes].
func (a *autoscaler) target() int {
	pl := a.pl
	t := pl.db.StateCount(LifecycleActive)
	if a.qEWMA > 0 {
		hold := pl.holdEWMA
		if hold <= 0 {
			hold = 250 * time.Millisecond // no completed holds yet
		}
		window := time.Duration(drainWindowTicks) * tickInterval
		backlog := int((a.qEWMA*float64(hold) + float64(window) - 1) / float64(window))
		if backlog < 1 {
			backlog = 1 // a non-empty queue always asks for something
		}
		t += backlog
	}
	if t < pl.cfg.MinRuntimes {
		t = pl.cfg.MinRuntimes
	}
	if t > pl.cfg.MaxRuntimes {
		t = pl.cfg.MaxRuntimes
	}
	return t
}

// tick is one control-loop step.
func (a *autoscaler) tick() {
	a.pending = false
	pl := a.pl
	a.ticks++

	qlen := pl.waitQ.len()
	a.qEWMA += queueAlpha * (float64(qlen) - a.qEWMA)
	if a.qEWMA < 1e-3 {
		a.qEWMA = 0
	}
	if a.backoff > 0 {
		a.backoff--
	}

	have := pl.schedulable()
	want := a.target()

	switch {
	case want > have:
		// Grow. Open the request path's ceiling boundedly, and boot for
		// the parked backlog the request path cannot see.
		a.surplus = 0
		if a.limit < want {
			a.limit = min(a.limit+growPerTick, want)
		}
		if a.backoff == 0 && a.strikes < bootGiveUp {
			n := min(want-have, growPerTick, a.limit-have)
			for i := 0; i < n; i++ {
				pl.backlogBoot()
			}
		}
	case have > want:
		// Surplus. After the hysteresis window, retire one idle runtime
		// per tick, longest-idle first.
		a.surplus++
		if a.surplus >= shrinkAfter {
			a.stopOneIdle()
		}
	default:
		a.surplus = 0
	}
	if want <= have && a.limit > a.floorLimit() && a.limit > want {
		a.limit--
	}

	if pl.om != nil {
		pl.om.asTicks.Inc()
		pl.om.asLimit.Set(int64(a.limit))
		pl.om.asQueueEWMA.Set(int64(a.qEWMA * 1000))
	}

	// Re-arm while there is still work to converge on; otherwise go
	// silent until the next kick. A permanent boot-failure streak stops
	// counting as convergable work (bootGiveUp).
	deficit := have < want && a.strikes < bootGiveUp
	busy := qlen > 0 || a.qEWMA > 0 || deficit || have > want ||
		pl.db.StateCount(LifecycleBooting) > 0 ||
		(a.limit > a.floorLimit() && a.limit > want)
	if busy {
		a.pending = true
		a.timer.After(tickInterval)
	}
}

// noteBoot books one backlog boot's outcome. A failure (bootSlot already
// recorded it and removed the provisional slot) backs the grow path off
// linearly and makes sure a tick comes around to retry.
func (a *autoscaler) noteBoot(err error) {
	if err != nil {
		a.strikes++
		a.backoff = min(a.strikes, bootGiveUp)
		a.pl.kickScaler()
		return
	}
	a.strikes = 0
	if a.pl.om != nil {
		a.pl.om.asBoots.Inc()
	}
}

// stopOneIdle retires the longest-idle schedulable runtime, if the pool
// is above its floor.
func (a *autoscaler) stopOneIdle() {
	pl := a.pl
	if pl.schedulable() <= pl.cfg.MinRuntimes {
		return
	}
	var victim *slot
	pl.slots.each(func(sl *slot) {
		if !slotIdle(sl) {
			return
		}
		if victim == nil || sl.info.LastUsed < victim.info.LastUsed {
			victim = sl
		}
	})
	if victim != nil {
		pl.armStop(victim, true)
	}
}

// SetPoolBounds retunes the pool's sizing bounds at runtime — the
// operator's floor/ceiling knob (a scenario's set-floor event, a capacity
// reservation ahead of an anticipated burst). Values are clamped sane
// (maxR at least 1, 0 <= minR <= maxR) and a control tick is kicked so an
// enlarged floor starts pre-warming immediately rather than waiting for
// the next demand edge. Without the autoscaler the new MaxRuntimes bounds
// the request path's boot ceiling, and a raised one boots at once for the
// requests already parked in the wait ring (refill); MinRuntimes stays
// inert, as documented on Config.
func (pl *Platform) SetPoolBounds(minR, maxR int) {
	if maxR < 1 {
		maxR = 1
	}
	if minR < 0 {
		minR = 0
	}
	if minR > maxR {
		minR = maxR
	}
	pl.cfg.MinRuntimes = minR
	pl.cfg.MaxRuntimes = maxR
	pl.kickScaler()
	pl.refill()
}
