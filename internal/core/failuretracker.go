package core

// This file is the health half of the elastic-pool subsystem
// (autoscaler.go is the capacity half): a per-runtime failure tracker
// that turns repeated boot/exec/teardown failures into a cordon — the
// runtime stops taking work, drains through the lifecycle FSM's
// idle→draining→reclaimed edge, and replacement capacity boots. A single
// flaky runtime (bad host placement, corrupted layer, leaking guest)
// otherwise keeps winning dispatches and failing them forever.

// FailureKind classifies a runtime failure for the tracker.
type FailureKind uint8

// The tracked failure classes.
const (
	FailBoot FailureKind = iota
	FailExec
	FailTeardown

	numFailureKinds
)

func (k FailureKind) String() string {
	switch k {
	case FailBoot:
		return "boot"
	case FailExec:
		return "exec"
	case FailTeardown:
		return "teardown"
	}
	return "unknown"
}

// failureTracker counts consecutive failures per live runtime. A
// successful execution clears a runtime's strikes — only an unbroken run
// of failures reaches the cordon threshold, so a runtime serving a flaky
// app mix is not condemned for its tenants' errors. threshold 0 disables
// cordoning (the tracker still keeps aggregate totals).
type failureTracker struct {
	threshold int
	strikes   map[string]int
	totals    [numFailureKinds]int
	cordons   int
}

func newFailureTracker(threshold int) *failureTracker {
	return &failureTracker{threshold: threshold, strikes: make(map[string]int)}
}

// record notes one failure against cid and reports whether cid just
// crossed the cordon threshold.
func (t *failureTracker) record(cid string, k FailureKind) bool {
	t.totals[k]++
	if t.threshold <= 0 {
		return false
	}
	t.strikes[cid]++
	return t.strikes[cid] == t.threshold
}

// clear wipes a runtime's consecutive-failure count (successful exec, or
// the runtime left the pool).
func (t *failureTracker) clear(cid string) { delete(t.strikes, cid) }

// total returns the aggregate failure count for one kind.
func (t *failureTracker) total(k FailureKind) int { return t.totals[k] }

// noteFailure records a runtime failure, cordoning the runtime when its
// consecutive strikes reach the threshold. Boot failures arrive for CIDs
// already removed from the pool; they count toward totals and the health
// instruments but cannot cordon (there is no live slot to cordon).
func (pl *Platform) noteFailure(cid string, k FailureKind) {
	if pl.om != nil {
		pl.om.healthFails[k].Inc()
	}
	if pl.ft.record(cid, k) {
		pl.cordon(cid)
	}
}

// cordon marks a runtime unschedulable: the scheduler stops picking it
// (slotIdle excludes cordoned slots), place stops handing it to waiters or
// offering it back, and once idle it drains on the slot's stop proc. In a
// fixed pool the drain boots the parked requests' replacement (refill).
func (pl *Platform) cordon(cid string) {
	sl := pl.byID[cid]
	if sl == nil || sl.cordoned {
		return
	}
	sl.cordoned = true
	pl.cordonedLive++
	pl.ft.cordons++
	pl.ft.clear(cid)
	if pl.om != nil {
		pl.om.cordons.Inc()
	}
	if sl.info.State == LifecycleIdle {
		pl.armStop(sl, false)
	}
	pl.kickScaler()
}

// CordonRuntime marks a runtime unschedulable and drains it once it goes
// idle (immediately if it already is). This is the remediation entry
// point: the failure tracker calls it on repeated failures, and tests or
// operators can force it. Returns false for an unknown CID.
func (pl *Platform) CordonRuntime(cid string) bool {
	if pl.byID[cid] == nil {
		return false
	}
	pl.cordon(cid)
	return true
}

// Cordoned reports how many runtimes this platform has ever cordoned.
func (pl *Platform) Cordoned() int { return pl.ft.cordons }

// FailureCount returns the aggregate count of one failure kind.
func (pl *Platform) FailureCount(k FailureKind) int { return pl.ft.total(k) }
