package core

import (
	"strings"
	"testing"

	"rattrap/internal/acd"
	"rattrap/internal/obs"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// TestAuditNamesEachCorruptedBook: a platform that served one request
// audits clean; each book corrupted once makes Audit name that book.
func TestAuditNamesEachCorruptedBook(t *testing.T) {
	app, _ := workload.ByName(workload.NameLinpack)
	aid := func(pl *Platform) string { return pl.warehouse.AIDs()[0] }
	for book, corrupt := range map[string]func(*sim.Proc, *Platform){
		"cordonedLive":              func(_ *sim.Proc, pl *Platform) { pl.cordonedLive++ },
		"idle with an open session": func(_ *sim.Proc, pl *Platform) { pl.slots.head.sess.released = false }, // a Release that forgot its flag
		"binds code to s-gone":      func(_ *sim.Proc, pl *Platform) { pl.warehouse.byCID["s-gone"] = []string{aid(pl)} },
		"scheduler names s-gone":    func(_ *sim.Proc, pl *Platform) { pl.sched.Add(&slot{id: "s-gone"}, aid(pl)) },
		"core.pool_size reads 7":    func(_ *sim.Proc, pl *Platform) { pl.om.poolSize.Set(7) },
		"state.idle reads 7":        func(_ *sim.Proc, pl *Platform) { pl.om.lifeStates[LifecycleIdle].Set(7) },
		"warehouse.bytes reads 0":   func(_ *sim.Proc, pl *Platform) { pl.warehouse.bytesGauge.Set(0) },
		"warehouse.evictions reads": func(_ *sim.Proc, pl *Platform) { pl.warehouse.evictCount.Inc() },
		"store holds /warehouse/chunks/0000000000000007": func(p *sim.Proc, pl *Platform) {
			_ = pl.offloadIO.Write(p, chunkPath(7), 1, nil, 1)
		},
		"empty pool left modules [cac_alarm": func(p *sim.Proc, pl *Platform) {
			if err := pl.StopAll(p); err != nil || pl.Audit() != nil {
				t.Errorf("emptying the pool: %v, then %v", err, pl.Audit())
			}
			_ = acd.LoadAll(p, pl.Kernel, pl.acdModules)
		},
	} {
		e := sim.NewEngine(1)
		pl := New(e, DefaultConfig(KindRattrap))
		pl.SetObs(obs.NewRegistry())
		d := mustDevice(t, e, "phone-1")
		e.Spawn("audit", func(p *sim.Proc) {
			if _, _, err := d.Offload(p, d.NewTask(app), app.CodeSize(), pl); err != nil || pl.Audit() != nil {
				t.Errorf("before corrupting %s: %v, then %v", book, err, pl.Audit())
				return
			}
			corrupt(p, pl)
			if err := pl.Audit(); err == nil || !strings.Contains(err.Error(), book) {
				t.Errorf("corrupted %s: Audit says %v", book, err)
			}
		})
		e.Run()
	}
}
