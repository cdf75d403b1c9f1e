package core

import (
	"testing"

	"rattrap/internal/obs"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestObsCountersAndSpansConsistent runs real offloads through a platform
// with observability installed and cross-checks the three views of the
// same events: the registry counters, the stage histograms, and the
// request spans. They are recorded at different layers (dispatcher,
// warehouse, session, device) and must agree.
func TestObsCountersAndSpansConsistent(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	reg := obs.NewRegistry()
	pl.SetObs(reg)
	if pl.Obs() != reg {
		t.Fatal("Obs() does not return the installed registry")
	}
	d := mustDevice(t, e, "phone-1")
	d.EnableSpans(true)
	app, _ := workload.ByName(workload.NameChess)

	// Cold request: boot + code push + execute.
	offloadOnce(t, e, pl, d, app)
	sp := d.LastSpan()
	if sp == nil {
		t.Fatal("no span recorded with spans enabled")
	}
	agg := sp.ByStage()

	c := func(name string) int64 { return reg.Counter(name).Value() }
	if c("dispatch.boots") != 1 || c("warehouse.misses") != 1 || c("core.executes") != 1 {
		t.Fatalf("cold request counters: boots=%d misses=%d executes=%d",
			c("dispatch.boots"), c("warehouse.misses"), c("core.executes"))
	}
	// The span's boot record and the platform's boot histogram saw the
	// same single virtual-time interval.
	bh := reg.Histogram("stage." + obs.StageBoot)
	if bh.Count() != 1 || bh.Snapshot().Max() != agg[obs.StageBoot] {
		t.Fatalf("boot: histogram (n=%d, max=%v) vs span %v",
			bh.Count(), bh.Snapshot().Max(), agg[obs.StageBoot])
	}
	ch := reg.Histogram("stage." + obs.StageCodeStage)
	if ch.Count() != 1 || ch.Snapshot().Max() != agg[obs.StageCodeStage] {
		t.Fatalf("code stage: histogram (n=%d, max=%v) vs span %v",
			ch.Count(), ch.Snapshot().Max(), agg[obs.StageCodeStage])
	}
	if rh := reg.Histogram("stage." + obs.StageRun); rh.Snapshot().Max() != agg[obs.StageRun] {
		t.Fatalf("run: histogram max %v vs span %v", rh.Snapshot().Max(), agg[obs.StageRun])
	}

	// Warm request, same device+app: the loaded runtime is reused via the
	// affinity index, the warehouse already holds the code, nothing boots.
	offloadOnce(t, e, pl, d, app)
	if c("dispatch.boots") != 1 {
		t.Fatalf("warm request booted: boots=%d", c("dispatch.boots"))
	}
	if c("dispatch.affinity_hits") == 0 {
		t.Fatal("warm request missed the affinity index")
	}
	if c("core.executes") != 2 {
		t.Fatalf("executes=%d, want 2", c("core.executes"))
	}
	if warm := d.LastSpan().ByStage(); warm[obs.StageBoot] != 0 || warm[obs.StageQueueWait] != 0 {
		t.Fatalf("warm span carries boot=%v queue=%v", warm[obs.StageBoot], warm[obs.StageQueueWait])
	}

	// Histogram counts mirror their counters across the whole run.
	if got := reg.Histogram("stage." + obs.StageRun).Count(); got != c("core.executes") {
		t.Fatalf("run histogram n=%d, executes=%d", got, c("core.executes"))
	}
	if got := reg.Histogram("stage." + obs.StageBoot).Count(); got != c("dispatch.boots") {
		t.Fatalf("boot histogram n=%d, boots=%d", got, c("dispatch.boots"))
	}
	if err := pl.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestObsQueueInstrumentation forces the FIFO wait ring (pool capped at
// one) and checks the queue counter, the queue-wait histogram and the
// spans agree about who waited.
func TestObsQueueInstrumentation(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig(KindRattrap)
	cfg.MaxRuntimes = 1
	pl := New(e, cfg)
	reg := obs.NewRegistry()
	pl.SetObs(reg)

	apps := workload.Apps()
	var spans []*obs.Span
	for i := 0; i < 3; i++ {
		// Distinct apps so affinity cannot serve them and the single slot
		// must be handed over through the ring.
		app := apps[i%len(apps)]
		d := mustDeviceIn(t, e, "phone-"+string(rune('a'+i)))
		d.EnableSpans(true)
		e.Spawn("req", func(p *sim.Proc) {
			task := d.NewTask(app)
			if _, _, err := d.Offload(p, task, app.CodeSize(), pl); err != nil {
				t.Errorf("offload: %v", err)
			}
			spans = append(spans, d.LastSpan())
		})
	}
	e.Run()

	queued := reg.Counter("dispatch.queued").Value()
	if queued == 0 {
		t.Fatal("no request queued despite a one-slot pool")
	}
	qh := reg.Histogram("stage." + obs.StageQueueWait)
	if qh.Count() != queued {
		t.Fatalf("queue-wait histogram n=%d, queued counter %d", qh.Count(), queued)
	}
	withWait := 0
	for _, sp := range spans {
		if sp.ByStage()[obs.StageQueueWait] > 0 {
			withWait++
		}
	}
	if int64(withWait) != queued {
		t.Fatalf("%d spans carry queue wait, counter says %d", withWait, queued)
	}
	if reg.Gauge("core.queue_len").Value() != 0 {
		t.Fatalf("queue_len gauge %d after drain", reg.Gauge("core.queue_len").Value())
	}
}

// TestObsDisabled pins the off switch: SetObs(nil) must stop all
// recording, and a platform that never had a registry records nothing.
func TestObsDisabled(t *testing.T) {
	e, pl := newPlatform(KindRattrap)
	reg := obs.NewRegistry()
	pl.SetObs(reg)
	pl.SetObs(nil)
	if pl.Obs() != nil {
		t.Fatal("Obs() non-nil after SetObs(nil)")
	}
	d := mustDevice(t, e, "phone-1")
	app, _ := workload.ByName(workload.NameLinpack)
	offloadOnce(t, e, pl, d, app)
	if v := reg.Counter("core.executes").Value(); v != 0 {
		t.Fatalf("detached registry still incremented: executes=%d", v)
	}
	if d.LastSpan() != nil {
		t.Fatal("span recorded without EnableSpans")
	}
}
