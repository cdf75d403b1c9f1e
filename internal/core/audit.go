package core

import "fmt"

// Audit recounts the platform's books and reports the first disagreement;
// each check holds between any two engine events. The census sums to the
// DB's rows, which are the pooled slots, each in the CID index; a pooled
// slot with an open session is active (a runtime leaves the pool idle or
// booting, so no unpooled one holds one); cordonedLive counts the cordoned
// ones; the scheduler and the warehouse's CID index name only pooled slots;
// Warehouse.Audit passes; an empty container pool has no driver module
// loaded; and installed instruments read what the books hold.
func (pl *Platform) Audit() error {
	sum, cordoned := 0, 0
	for _, n := range pl.db.states {
		sum += n
	}
	if sum != pl.db.Count() || pl.db.Count() != pl.slots.n || len(pl.byID) != pl.slots.n {
		return fmt.Errorf("core audit: census %d, DB rows %d, pool %d, CID index %d", sum, pl.db.Count(), pl.slots.n, len(pl.byID))
	}
	for sl := pl.slots.head; sl != nil; sl = sl.next {
		if pl.byID[sl.id] != sl {
			return fmt.Errorf("core audit: pooled runtime %s is not in the CID index", sl.id)
		}
		if sl.sess.pl != nil && !sl.sess.released && sl.info.State != LifecycleActive {
			return fmt.Errorf("core audit: runtime %s is %s with an open session", sl.id, sl.info.State)
		}
		if sl.cordoned {
			cordoned++
		}
	}
	if cordoned != pl.cordonedLive {
		return fmt.Errorf("core audit: cordonedLive %d, %d cordoned runtimes pooled", pl.cordonedLive, cordoned)
	}
	var named []*slot // every slot the scheduler indexes
	switch s := pl.sched.(type) {
	case *AffinityScheduler:
		named = append(named, s.idle...)
		for _, hs := range s.holders {
			named = append(named, hs...)
		}
	case *FIFOScheduler:
		named = s.idle
	}
	for _, sl := range named {
		if pl.byID[sl.id] != sl {
			return fmt.Errorf("core audit: the scheduler names %s, which left the pool", sl.id)
		}
	}
	if pl.warehouse != nil {
		for cid := range pl.warehouse.byCID {
			if pl.byID[cid] == nil {
				return fmt.Errorf("core audit: the warehouse binds code to %s, which left the pool", cid)
			}
		}
		if err := pl.warehouse.Audit(); err != nil {
			return err
		}
	}
	if pl.cfg.Kind != KindVM && pl.slots.n == 0 && pl.Kernel.ModuleMemKB() != 0 {
		return fmt.Errorf("core audit: empty pool left modules %v loaded (%d KB)", pl.Kernel.Lsmod(), pl.Kernel.ModuleMemKB())
	}
	if pl.om != nil {
		if v := pl.om.poolSize.Value(); v != int64(pl.slots.n) {
			return fmt.Errorf("core audit: core.pool_size reads %d, pool %d", v, pl.slots.n)
		}
		for _, s := range LifecycleStates() {
			if v := pl.om.lifeStates[s].Value(); v != int64(pl.db.StateCount(s)) {
				return fmt.Errorf("core audit: lifecycle.state.%s reads %d, census %d", s, v, pl.db.StateCount(s))
			}
		}
	}
	return nil
}
