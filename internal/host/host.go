// Package host models the physical machines in the testbed: the cloud
// server (2 six-core Xeon X5650, 16 GB DRAM, 300 GB HDD in the paper) and,
// with a different Config, the mobile devices.
//
// The model is deliberately simple but structural: compute time comes from
// abstract work units divided by per-core speed, disk time from bytes
// divided by sequential bandwidth (or an IOPS budget for random access),
// and both CPU and disk are FIFO sim.Resources, so contention between
// concurrently booting runtimes emerges naturally. A page cache shared by
// everything on the host makes re-reads of shared-layer files memory-speed,
// which is the mechanism behind the fast boot of optimized Cloud Android
// Containers.
package host

import (
	"fmt"
	"time"

	"rattrap/internal/sim"
)

// Work is an abstract amount of computation in millions of operations
// (mops). Workload implementations meter their real algorithms in Work.
type Work float64

// Bytes is a data size in bytes.
type Bytes int64

// Common sizes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

// Config describes a machine.
type Config struct {
	Name string
	// Cores is the number of CPU cores.
	Cores int
	// CoreMops is per-core speed in millions of work units per second.
	CoreMops float64
	// MemMB is installed DRAM in MiB.
	MemMB int
	// DiskSeqMBps is sequential HDD throughput.
	DiskSeqMBps float64
	// DiskRandIOPS is the random 4 KiB operation budget per second.
	DiskRandIOPS float64
	// MemBWMBps is page-cache / tmpfs throughput.
	MemBWMBps float64
}

// CloudServer returns the paper's server configuration: 2 six-core Intel
// Xeon X5650 2.66 GHz, 16 GB DRAM, 300 GB HDD, Ubuntu 15.04.
func CloudServer() Config {
	return Config{
		Name:         "cloud-server",
		Cores:        12,
		CoreMops:     2400, // X5650 core, ~8x the phone core below
		MemMB:        16384,
		DiskSeqMBps:  110, // 7.2k rpm HDD
		DiskRandIOPS: 160,
		MemBWMBps:    2400, // tmpfs / page cache
	}
}

// MobileDevice returns a 2016-era Android handset configuration.
func MobileDevice(name string) Config {
	return Config{
		Name:         name,
		Cores:        4,
		CoreMops:     300, // one big core of a mid-range SoC
		MemMB:        2048,
		DiskSeqMBps:  80, // eMMC
		DiskRandIOPS: 1500,
		MemBWMBps:    1600,
	}
}

// Host is a machine instance inside a simulation.
type Host struct {
	E   *sim.Engine
	cfg Config

	cpu  *sim.Resource
	disk *sim.Resource

	// The utilization recorder; nil until RecordTimelines.
	cpuBusy   *sim.StepSeries
	diskRead  *sim.CountSeries
	diskWrite *sim.CountSeries

	memUsedMB int
	memPeakMB int

	// The page cache: a Page is resident here while its tag is cacheGen, so
	// DropCaches retires every page by advancing it. cached counts the
	// resident pages; named owns the pages of data no file stands for.
	cacheGen uint64
	cached   int
	named    map[string]*Page
}

// Page is the page-cache residency of one file's blocks. Whoever owns the
// file embeds one (a unionfs node does) and hands it to the host on every
// read, so a cached read reaches its residency without building or hashing a
// key. The zero Page is resident nowhere. A Page names the one host that
// cached it: read on a second host it is a miss there and moves over,
// instead of the two hosts silently sharing a cache.
type Page struct {
	h   *Host
	gen uint64
}

// New creates a host on engine e.
func New(e *sim.Engine, cfg Config) *Host {
	return &Host{
		E:        e,
		cfg:      cfg,
		cpu:      sim.NewResource(e, cfg.Name+"/cpu", cfg.Cores),
		disk:     sim.NewResource(e, cfg.Name+"/disk", 1),
		cacheGen: 1,
		named:    make(map[string]*Page),
	}
}

// RecordTimelines starts the recorder behind CPUUtilization, DiskReadMBps
// and DiskWriteMBps at the current virtual time. It is opt-in because the
// series keep an entry per CPU hand-over and per disk operation for as long
// as the host lives — what the experiment harness charts (Fig. 2), and what
// a platform that serves requests indefinitely must not accumulate. A host
// that never called it reports all-zero timelines.
func (h *Host) RecordTimelines() {
	h.cpuBusy = sim.NewStepSeries(h.E)
	h.cpuBusy.Set(float64(h.cpu.InUse()))
	h.cpu.OnChange(func(n int) { h.cpuBusy.Set(float64(n)) })
	h.diskRead = sim.NewCountSeries(h.E)
	h.diskWrite = sim.NewCountSeries(h.E)
}

// Config returns the machine description.
func (h *Host) Config() Config { return h.cfg }

// Compute occupies one core for work/(CoreMops*efficiency) and blocks p for
// that long. efficiency < 1 models virtualization overhead (e.g. a VM's
// binary-translation/VMEXIT cost); 1 is bare metal.
func (h *Host) Compute(p *sim.Proc, work Work, efficiency float64) {
	if work <= 0 {
		return
	}
	if efficiency <= 0 || efficiency > 1 {
		panic(fmt.Sprintf("host: efficiency %v out of (0,1]", efficiency))
	}
	d := time.Duration(float64(work) / (h.cfg.CoreMops * efficiency) * float64(time.Second))
	h.cpu.Acquire(p, 1)
	p.Sleep(d)
	h.cpu.Release(1)
}

// ComputeOn occupies n cores (a parallel region) for the same duration.
func (h *Host) ComputeOn(p *sim.Proc, cores int, work Work, efficiency float64) {
	if work <= 0 {
		return
	}
	if cores <= 0 || cores > h.cfg.Cores {
		panic(fmt.Sprintf("host: %d cores of %d", cores, h.cfg.Cores))
	}
	d := time.Duration(float64(work) / (h.cfg.CoreMops * efficiency * float64(cores)) * float64(time.Second))
	h.cpu.Acquire(p, cores)
	p.Sleep(d)
	h.cpu.Release(cores)
}

// DiskRead reads size bytes, blocking p. key names the data for page
// caching: a cached key is served from memory without touching the disk.
// An empty key bypasses the cache. sequential selects streaming bandwidth
// versus the random-IOPS budget. It is DiskReadPage for data no file stands
// for (a kernel module, a reassembled code blob): the host keeps the key's
// Page itself.
//
// efficiency models the caller's I/O-virtualization cost. Crucially, only
// the raw media time occupies the (FIFO) disk; the virtualization penalty
// is served in the caller's own emulation path (trap-and-emulate CPU, not
// spindle time), so five booting VMs stretch their own boots without
// multiplying each other's disk queueing by the emulation slowdown.
func (h *Host) DiskRead(p *sim.Proc, key string, size Bytes, sequential bool, efficiency float64) {
	if size <= 0 {
		return
	}
	if h.Cached(key) {
		h.memCopy(p, size)
		return
	}
	h.diskOp(p, h.diskRead, size, sequential, efficiency)
	h.WarmCache(key) // looked up again: an Evict while the read blocked dropped the key's Page
}

// DiskReadPage is DiskRead for data whose owner holds its Page: resident, it
// is served from memory; otherwise the read pays the disk and leaves it
// resident. A nil pg bypasses the cache.
func (h *Host) DiskReadPage(p *sim.Proc, pg *Page, size Bytes, sequential bool, efficiency float64) {
	if size <= 0 {
		return
	}
	if h.CachedPage(pg) {
		h.memCopy(p, size)
		return
	}
	h.diskOp(p, h.diskRead, size, sequential, efficiency)
	h.WarmPage(pg)
}

// DiskWrite writes size bytes, blocking p.
func (h *Host) DiskWrite(p *sim.Proc, size Bytes, sequential bool, efficiency float64) {
	if size <= 0 {
		return
	}
	h.diskOp(p, h.diskWrite, size, sequential, efficiency)
}

func (h *Host) diskOp(p *sim.Proc, rec *sim.CountSeries, size Bytes, sequential bool, efficiency float64) {
	raw := h.diskTime(size, sequential, 1.0)
	total := h.diskTime(size, sequential, efficiency)
	if rec != nil {
		rec.AddSpread(float64(size), total)
	}
	h.disk.Acquire(p, 1)
	p.Sleep(raw)
	h.disk.Release(1)
	if total > raw {
		p.Sleep(total - raw)
	}
}

// MemCopy moves size bytes at memory bandwidth (tmpfs reads/writes,
// page-cache hits). It does not occupy the disk.
func (h *Host) MemCopy(p *sim.Proc, size Bytes) { h.memCopy(p, size) }

func (h *Host) memCopy(p *sim.Proc, size Bytes) {
	if size <= 0 {
		return
	}
	d := time.Duration(float64(size) / float64(MB) / h.cfg.MemBWMBps * float64(time.Second))
	p.Sleep(d)
}

func (h *Host) diskTime(size Bytes, sequential bool, efficiency float64) time.Duration {
	if efficiency <= 0 || efficiency > 1 {
		panic(fmt.Sprintf("host: efficiency %v out of (0,1]", efficiency))
	}
	var secs float64
	if sequential {
		secs = float64(size) / float64(MB) / (h.cfg.DiskSeqMBps * efficiency)
	} else {
		ops := float64((size + 4*KB - 1) / (4 * KB))
		secs = ops / (h.cfg.DiskRandIOPS * efficiency)
	}
	return time.Duration(secs * float64(time.Second))
}

// CachedPage reports whether pg is resident in this host's page cache.
func (h *Host) CachedPage(pg *Page) bool {
	return pg != nil && pg.h == h && pg.gen == h.cacheGen
}

// WarmPage marks pg resident without simulating a read (its file was just
// written and is therefore hot). A nil pg is a no-op.
func (h *Host) WarmPage(pg *Page) {
	if pg == nil || h.CachedPage(pg) {
		return
	}
	if pg.h != nil {
		pg.h.EvictPage(pg) // resident on one host at a time
	}
	*pg = Page{h: h, gen: h.cacheGen}
	h.cached++
}

// EvictPage drops pg from the page cache (its file was deleted, or belongs
// to a runtime that is gone and will never be read again). A page that is
// not resident here, nil included, is a no-op.
func (h *Host) EvictPage(pg *Page) {
	if h.CachedPage(pg) {
		pg.h = nil
		h.cached--
	}
}

// Cached reports whether key is resident in the page cache.
func (h *Host) Cached(key string) bool { return h.CachedPage(h.named[key]) }

// CachedFiles returns how many files and keys are resident in the page
// cache.
func (h *Host) CachedFiles() int { return h.cached }

// WarmCache is WarmPage by key, whose Page is created on first use; the
// empty key is a no-op.
func (h *Host) WarmCache(key string) {
	if key == "" {
		return
	}
	pg := h.named[key]
	if pg == nil {
		pg = new(Page)
		h.named[key] = pg
	}
	h.WarmPage(pg)
}

// Evict is EvictPage by key. A key that is not resident, the empty key
// included, is a no-op.
func (h *Host) Evict(key string) {
	h.EvictPage(h.named[key])
	delete(h.named, key)
}

// DropCaches empties the page cache (echo 3 > /proc/sys/vm/drop_caches):
// every Page tagged with the old generation stops being resident.
func (h *Host) DropCaches() {
	h.cacheGen++
	h.cached = 0
	clear(h.named)
}

// AllocMem reserves mb MiB of DRAM, failing if the machine would exceed
// its installed memory.
func (h *Host) AllocMem(mb int) error {
	if mb < 0 {
		panic("host: negative allocation")
	}
	if h.memUsedMB+mb > h.cfg.MemMB {
		return fmt.Errorf("host %s: out of memory: %d MiB used + %d requested > %d installed",
			h.cfg.Name, h.memUsedMB, mb, h.cfg.MemMB)
	}
	h.memUsedMB += mb
	if h.memUsedMB > h.memPeakMB {
		h.memPeakMB = h.memUsedMB
	}
	return nil
}

// FreeMem releases mb MiB reserved with AllocMem.
func (h *Host) FreeMem(mb int) {
	if mb < 0 || mb > h.memUsedMB {
		panic(fmt.Sprintf("host %s: freeing %d MiB with %d in use", h.cfg.Name, mb, h.memUsedMB))
	}
	h.memUsedMB -= mb
}

// MemUsedMB returns currently reserved DRAM in MiB.
func (h *Host) MemUsedMB() int { return h.memUsedMB }

// MemPeakMB returns the high-water mark of reserved DRAM in MiB.
func (h *Host) MemPeakMB() int { return h.memPeakMB }

// CPUUtilization returns per-bucket CPU utilization in percent over
// [from, to), one value per width.
func (h *Host) CPUUtilization(from, to sim.Time, width time.Duration) []float64 {
	busy := h.cpuBusy
	if busy == nil {
		busy = sim.NewStepSeries(h.E) // nothing recorded: one zero per bucket
	}
	raw := busy.Buckets(from, to, width)
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = v / float64(h.cfg.Cores) * 100
	}
	return out
}

// DiskReadMBps returns the per-bucket disk read rate in MB/s.
func (h *Host) DiskReadMBps(from, to sim.Time, width time.Duration) []float64 {
	return h.diskRate(h.diskRead, from, to, width)
}

// DiskWriteMBps returns the per-bucket disk write rate in MB/s.
func (h *Host) DiskWriteMBps(from, to sim.Time, width time.Duration) []float64 {
	return h.diskRate(h.diskWrite, from, to, width)
}

func (h *Host) diskRate(c *sim.CountSeries, from, to sim.Time, width time.Duration) []float64 {
	if c == nil {
		c = sim.NewCountSeries(h.E) // nothing recorded: one zero per bucket
	}
	raw := c.Buckets(from, to, width)
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = v / float64(MB) / width.Seconds()
	}
	return out
}
