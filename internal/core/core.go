// Package core implements Rattrap, the lightweight container-based cloud
// platform for mobile computation offloading (§IV), plus the two baseline
// platforms the paper compares against. A Platform owns the cloud server,
// its kernel, and a pool of code runtime environments, and serves devices
// through the offload.Gateway interface:
//
//   - KindVM: the traditional cloud — Android-x86 VMs under a hypervisor;
//   - KindRattrapWO: Rattrap without optimizations — plain Cloud Android
//     Containers, full Android, exclusive offloading I/O, no code cache;
//   - KindRattrap: the full design — customized OS, Shared Resource Layer
//     (shared /system + shared in-memory offloading I/O), App Warehouse
//     code cache, warehouse-aware dispatching, request-based access
//     control.
//
// The Dispatcher allocates runtimes with warehouse affinity (requests from
// an app go where its code is already loaded), boots new runtimes on
// demand up to MaxRuntimes, and queues requests FIFO beyond that. The
// Monitor & Scheduler's view lives in the Container DB.
package core

import (
	"errors"
	"fmt"
	"time"

	"rattrap/internal/acd"
	"rattrap/internal/android"
	"rattrap/internal/container"
	"rattrap/internal/host"
	"rattrap/internal/image"
	"rattrap/internal/kernel"
	"rattrap/internal/obs"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/unionfs"
	"rattrap/internal/vm"
	"rattrap/internal/workload"
)

// Kind selects the platform flavor.
type Kind int

// The three evaluated platforms.
const (
	KindVM Kind = iota
	KindRattrapWO
	KindRattrap
)

func (k Kind) String() string {
	switch k {
	case KindVM:
		return "VM"
	case KindRattrapWO:
		return "Rattrap(W/O)"
	case KindRattrap:
		return "Rattrap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns the three platforms in the paper's comparison order.
func Kinds() []Kind { return []Kind{KindRattrap, KindRattrapWO, KindVM} }

// Config shapes a platform.
type Config struct {
	Kind Kind
	// MaxRuntimes caps the runtime pool (5 in the paper's experiments).
	MaxRuntimes int
	// ViolationThreshold is the access controller's blocking threshold.
	ViolationThreshold int
	// KernelRelease is the host kernel version (ACD targets it).
	KernelRelease string
	// IdleTimeout, when positive, makes the Monitor & Scheduler reclaim
	// runtimes idle for that long (freeing their memory and, for
	// containers, unloading idle ACD modules). Pre-starting/keeping VMs
	// "inevitably reduces server resource utilization" (§III-B);
	// reclamation is what makes Rattrap's 2 s boot a just-in-time story.
	IdleTimeout time.Duration
	// MaxQueueDepth, when positive, bounds the Dispatcher's FIFO wait
	// ring: once that many requests queue for a runtime, further requests
	// are rejected with offload.OverloadedError (carrying a retry-after
	// hint) instead of queueing unboundedly. 0 keeps the historical
	// unbounded behaviour.
	MaxQueueDepth int
	// Scheduler selects the Dispatcher's slot-selection policy. The zero
	// value is SchedAffinity, the paper's warehouse-aware dispatch, for
	// every platform kind.
	Scheduler SchedulerPolicy
	// MinRuntimes floors the pool when the autoscaler runs: the control
	// loop pre-warms and maintains this many runtimes, and shrinking
	// stops there. 0 allows scale-to-zero. Ignored without Autoscale.
	MinRuntimes int
	// Autoscale configures the elastic pool control loop (autoscaler.go).
	// Disabled (the zero value), pool sizing keeps the paper's static
	// boot-up-to-MaxRuntimes semantics.
	Autoscale AutoscaleConfig
	// CIDPrefix, when set, prefixes every runtime CID this platform mints
	// (cluster shards use "sN-" so runtime IDs stay unique cluster-wide).
	CIDPrefix string
	// TemplateBoot enables zygote-style template cloning (KindRattrap
	// only): the first full boot is snapshotted at its post-driver-load,
	// post-zygote point — a frozen union upper layer plus the booted
	// process image — and every later boot COW-clones that template
	// instead of re-running the Figure 6 sequence. Off (the default),
	// every boot takes the cold path and existing goldens are untouched.
	TemplateBoot bool
	// WarehouseCapacity bounds the warehouse's staged code volume; once
	// StoredBytes exceeds it, least-recently-bound entries are evicted.
	// 0 (the default) keeps the historical unbounded behaviour.
	WarehouseCapacity host.Bytes
}

// DefaultConfig mirrors the paper's experimental setup. The baselines
// dispatch FIFO: without an App Warehouse there is no cache-hit story, so
// warehouse-aware dispatch buys them nothing (each runtime still remembers
// codes its own ClassLoader loaded, but the paper's baselines do not
// route on that).
func DefaultConfig(kind Kind) Config {
	cfg := Config{Kind: kind, MaxRuntimes: 5, ViolationThreshold: 3, KernelRelease: "3.18.0"}
	if kind != KindRattrap {
		cfg.Scheduler = SchedFIFO
	}
	return cfg
}

// Memory limits from Table I.
const (
	memLimitWO  = 128 // CAC (non-optimized)
	memLimitOpt = 96  // CAC
)

// dispatcherConnect is the runtime→Dispatcher registration handshake after
// boot; Table I's setup time includes it.
const dispatcherConnect = 80 * time.Millisecond

// ErrBlocked wraps access-controller rejections surfaced through Prepare.
var ErrBlocked = errors.New("core: request rejected")

// Platform is one cloud platform instance.
type Platform struct {
	E      *sim.Engine
	Server *host.Host
	Kernel *kernel.Kernel

	cfg Config
	reg *workload.Registry

	db        *ContainerDB
	access    *AccessController
	warehouse *Warehouse // Rattrap only

	fullManifest image.Manifest // VM disk
	contManifest image.Manifest // container rootfs, full Android

	acdModules []*kernel.Module // the Android Container Driver for Kernel

	shared    *image.Image   // Rattrap: Shared Resource Layer (/system), the customized OS
	offloadIO *unionfs.Mount // Rattrap: shared in-memory offloading I/O

	// Template-boot state (cfg.TemplateBoot): the first full boot leaves
	// behind a frozen upper-layer snapshot, the source mount to clone the
	// union recipe from, and the captured process image. All nil until
	// that first boot completes.
	tmplLayer *unionfs.Layer
	tmplSrc   *container.Container
	tmpl      *android.Template

	// bootSamples records completed boot durations in boot order, bounded
	// to the most recent maxBootSamples so platforms that churn runtimes
	// for days don't accumulate memory; scenario boot-latency assertions
	// aggregate it across shards. bootNext is the ring's overwrite cursor
	// once the window is full.
	bootSamples []time.Duration
	bootNext    int

	// Dispatcher state (see dispatch.go): the pool in boot order, a CID
	// index, the slot-selection policy, and the FIFO wait queue.
	slots  slotList
	byID   map[string]*slot
	sched  Scheduler
	waitQ  waiterRing
	nextID int

	// holdEWMA tracks how long slots stay claimed (acquire → release); it
	// feeds the overload rejection's retry-after hint.
	holdEWMA time.Duration

	// bootFault, when set, is consulted at the start of every runtime
	// boot (fault injection; see internal/faults).
	bootFault func(p *sim.Proc, id string) error
	// teardownFault, when set, is consulted before a runtime's guest
	// teardown in StopRuntime (fault injection).
	teardownFault func(p *sim.Proc, id string) error
	// execFault, when set, is consulted before every workload execution
	// (fault injection); a non-nil return fails the execution.
	execFault func(p *sim.Proc, id, aid string) error

	// scaler is the elastic pool control loop, nil unless
	// cfg.Autoscale.Enabled (see autoscaler.go).
	scaler *autoscaler
	// ft tracks per-runtime consecutive failures and drives cordoning
	// (see failuretracker.go). Always non-nil; with CordonThreshold 0 it
	// only keeps aggregate totals.
	ft *failureTracker
	// cordonedLive counts cordoned slots still on the slot list — they
	// are census-visible but unschedulable, and the autoscaler must not
	// count them as capacity.
	cordonedLive int

	// om holds the pre-resolved observability instruments (see obs.go);
	// nil means observability is off and every record site is one nil
	// check.
	om *platformMetrics
}

// slot is the Dispatcher's handle on one runtime. Its lifecycle position
// lives in info.State, owned by the ContainerDB; the slot carries only
// scheduling bookkeeping.
type slot struct {
	id    string
	seq   int // boot order; dispatch ties break toward the oldest runtime
	env   android.Env
	rt    *android.Runtime
	ctr   *container.Container
	vmach *vm.VM
	info  *RuntimeInfo
	// rootfs is a KindRattrapWO container's private copy of the base
	// image (nil otherwise): warmed into the page cache at boot under keys
	// no other runtime shares, so it leaves the cache with the slot.
	rootfs *unionfs.Layer

	acquiredAt sim.Time // when the current claim started (hold-time EWMA)

	prev, next  *slot           // pl.slots linkage
	removed     bool            // unlinked from the pool; index entries are stale
	cordoned    bool            // unschedulable; drains once idle (failuretracker.go)
	viaTemplate bool            // booted by cloning the runtime template
	inIdle      bool            // has a live entry in the scheduler's idle heap
	inAff       map[string]bool // AIDs with a live entry in the affinity index
}

type waiter struct {
	sig *sim.Signal
	sl  *slot
	// aborted is set by the request's abort signal firing while queued;
	// an aborted waiter is skipped by popLiveWaiter, and if a release won
	// the race and handed it a slot anyway, the waiter re-releases it.
	aborted bool
	// taken marks the handoff complete: the waiter's proc resumed and
	// accepted the slot, so a late abort no longer concerns the queue.
	taken bool
}

// New assembles a platform on a fresh cloud server.
func New(e *sim.Engine, cfg Config) *Platform {
	if cfg.MaxRuntimes <= 0 {
		cfg.MaxRuntimes = 1
	}
	if cfg.MinRuntimes < 0 {
		cfg.MinRuntimes = 0
	}
	if cfg.MinRuntimes > cfg.MaxRuntimes {
		cfg.MinRuntimes = cfg.MaxRuntimes
	}
	if cfg.KernelRelease == "" {
		cfg.KernelRelease = "3.18.0"
	}
	srv := host.New(e, host.CloudServer())
	pl := &Platform{
		E:            e,
		Server:       srv,
		Kernel:       kernel.New(e, srv, cfg.KernelRelease),
		cfg:          cfg,
		reg:          workload.NewRegistry(),
		db:           NewContainerDB(),
		access:       NewAccessController(cfg.ViolationThreshold),
		fullManifest: image.AndroidX86(),
		byID:         make(map[string]*slot),
		sched:        newScheduler(cfg.Scheduler),
	}
	// The failure tracker always runs (aggregate totals are cheap);
	// cordoning needs an explicit threshold, or the autoscaler's default.
	threshold := cfg.Autoscale.CordonThreshold
	if threshold <= 0 && cfg.Autoscale.Enabled {
		threshold = cfg.Autoscale.withDefaults().CordonThreshold
	}
	pl.ft = newFailureTracker(threshold)
	if cfg.Autoscale.Enabled {
		pl.scaler = newAutoscaler(pl, cfg.Autoscale)
		if cfg.MinRuntimes > 0 {
			pl.kickScaler() // pre-warm the floor
		}
	}
	pl.contManifest = pl.fullManifest.ForContainer()
	pl.acdModules = acd.Modules(e, pl.Kernel.Release())
	if cfg.Kind == KindRattrap {
		// Shared Resource Layer: the customized /system, stored once and
		// mounted read-only under every container, its boot working set
		// resolved once for all of them. Building it just wrote these
		// files, so they start page-cached.
		pl.shared = pl.fullManifest.Customized().BuildLayer("shared-android", true)
		pl.shared.Layer.WarmCacheOn(srv)
		// Sharing Offloading I/O: one tmpfs layer for all containers.
		tmp := unionfs.NewTmpfs("offload-io")
		m, err := unionfs.NewMount(srv, "offload-io", tmp)
		if err != nil {
			panic(err) // static construction; cannot fail
		}
		pl.offloadIO = m
		pl.warehouse = NewWarehouse(e, m, cfg.WarehouseCapacity)
	}
	return pl
}

// Config returns the platform configuration.
func (pl *Platform) Config() Config { return pl.cfg }

// DB exposes the Container DB (Monitor's view).
func (pl *Platform) DB() *ContainerDB { return pl.db }

// Warehouse returns the App Warehouse (nil for baselines).
func (pl *Platform) Warehouse() *Warehouse { return pl.warehouse }

// Access returns the access controller.
func (pl *Platform) Access() *AccessController { return pl.access }

// SharedLayer returns the Shared Resource Layer (nil for baselines).
func (pl *Platform) SharedLayer() *unionfs.Layer {
	if pl.shared == nil {
		return nil
	}
	return pl.shared.Layer
}

// OffloadIO returns the shared in-memory offloading mount (nil for
// baselines).
func (pl *Platform) OffloadIO() *unionfs.Mount { return pl.offloadIO }

// Registry returns the platform's workload registry (its "reflection"
// dispatch table).
func (pl *Platform) Registry() *workload.Registry { return pl.reg }

// SetBootFault installs a hook consulted at the start of every runtime
// boot; a non-nil return fails the boot (nil removes the hook). The
// scenario runner wires it to its active fault plan.
func (pl *Platform) SetBootFault(fn func(p *sim.Proc, id string) error) { pl.bootFault = fn }

// SetTeardownFault installs a hook consulted before a runtime's guest
// teardown in StopRuntime; a non-nil return fails the teardown (the slot
// is still reclaimed — teardown is best-effort). The scenario runner wires
// it to its active fault plan.
func (pl *Platform) SetTeardownFault(fn func(p *sim.Proc, id string) error) {
	pl.teardownFault = fn
}

// SetExecFault installs a hook consulted before every workload
// execution; a non-nil return fails that execution (and counts against
// the runtime's failure strikes). The scenario runner wires it to its
// active fault plan.
func (pl *Platform) SetExecFault(fn func(p *sim.Proc, id, aid string) error) {
	pl.execFault = fn
}

// BootRuntime boots one runtime outside the request path (pool pre-warm
// and Table I measurements). The fresh runtime goes straight to the idle
// pool; the returned record is a copy (the live one belongs to the DB).
func (pl *Platform) BootRuntime(p *sim.Proc) (*RuntimeInfo, error) {
	sl, err := pl.bootSlot(p)
	if err != nil {
		return nil, err
	}
	pl.db.Transition(sl.id, LifecycleIdle)
	pl.sched.Offer(sl)
	return sl.info.clone(), nil
}

// bootSlot creates, boots, and registers a new runtime; the slot is
// returned LifecycleActive (reserved for the caller). The DB record is
// created provisionally before provisioning starts — cold, then booting —
// so the lifecycle census covers in-flight boots; a failed boot walks
// booting → reclaimed and leaves the DB.
func (pl *Platform) bootSlot(p *sim.Proc) (*slot, error) {
	pl.nextID++
	id := fmt.Sprintf("%s%s-%d", pl.cfg.CIDPrefix, kindSlug(pl.cfg.Kind), pl.nextID)
	sl := &slot{id: id, seq: pl.nextID, inAff: make(map[string]bool), acquiredAt: pl.E.Now()}
	sl.info = &RuntimeInfo{CID: id, Kind: pl.cfg.Kind} // born LifecycleCold
	pl.slots.pushBack(sl, pl.E.Now())
	pl.byID[id] = sl
	pl.db.Put(sl.info)
	pl.db.Transition(id, LifecycleBooting)
	start := pl.E.Now()

	fail := func(err error) (*slot, error) {
		pl.db.Transition(id, LifecycleReclaimed)
		pl.removeSlot(sl)
		if sl.rootfs != nil {
			sl.rootfs.DropCacheOn(pl.Server)
		}
		if pl.om != nil {
			pl.om.bootFails.Inc()
		}
		pl.noteFailure(id, FailBoot)
		return nil, fmt.Errorf("core: booting %s: %w", id, err)
	}

	if pl.bootFault != nil {
		if err := pl.bootFault(p, id); err != nil {
			return fail(err)
		}
	}

	switch pl.cfg.Kind {
	case KindVM:
		v, err := vm.Create(p, pl.Server, pl.E, vm.DefaultConfig(id), pl.fullManifest)
		if err != nil {
			return fail(err)
		}
		rt, err := android.Boot(p, v, v.BootConfig())
		if err != nil {
			v.Destroy(p)
			return fail(err)
		}
		sl.env, sl.rt, sl.vmach = v, rt, v

	case KindRattrapWO, KindRattrap:
		// Extend the host kernel on demand — no rebuild, no reboot.
		if err := acd.LoadAll(p, pl.Kernel, pl.acdModules); err != nil {
			return fail(err)
		}
		var (
			c   *container.Container
			err error
			bc  android.BootConfig
		)
		switch {
		case pl.cfg.Kind == KindRattrapWO:
			// Private full-Android rootfs, provisioned by copying the base
			// image. The fresh copy's pages are page-cache resident, so —
			// exactly like the measured 6.80 s — startup is CPU-bound; the
			// 1.02 GB of disk is still charged per container.
			rootfs := pl.contManifest.BuildLayer("rootfs:"+id, true)
			sl.rootfs = rootfs.Layer
			sl.rootfs.WarmCacheOn(pl.Server)
			c, err = container.Create(p, pl.Server, pl.Kernel,
				container.DefaultConfig(id, memLimitWO),
				unionfs.NewLayer(id+"-delta", false), sl.rootfs)
			bc = android.BootConfig{Image: rootfs}
		case pl.cfg.TemplateBoot && pl.tmpl != nil:
			// Template fast path: COW-clone the captured boot instead of
			// re-running it. The clone's union mount stacks a fresh empty
			// delta over the frozen template upper, so its disk charge is
			// only what it writes from here on.
			c, err = container.Clone(p, pl.tmplSrc,
				container.DefaultConfig(id, memLimitOpt),
				unionfs.NewLayer(id+"-delta", false), pl.tmplLayer)
			sl.viaTemplate = true
		default:
			c, err = container.Create(p, pl.Server, pl.Kernel,
				container.DefaultConfig(id, memLimitOpt),
				unionfs.NewLayer(id+"-delta", false), pl.shared.Layer)
			bc = android.BootConfig{Image: pl.shared, Customized: true}
		}
		if err != nil {
			return fail(err)
		}
		var rt *android.Runtime
		if sl.viaTemplate {
			rt, err = android.CloneBoot(p, c, pl.tmpl)
		} else {
			rt, err = android.Boot(p, c, bc)
		}
		if err != nil {
			c.Stop(p)
			return fail(err)
		}
		if pl.cfg.Kind == KindRattrap {
			rt.SetOffloadFS(pl.offloadIO)
			if pl.cfg.TemplateBoot && pl.tmpl == nil {
				// First full boot under template mode: freeze it. The
				// snapshot deep-copies the upper layer's metadata (sharing
				// only file payloads), so later writes by this runtime never
				// leak into its clones.
				pl.tmplLayer = c.FS().Upper().Snapshot(id + "-template")
				pl.tmplSrc = c
				pl.tmpl = rt.CaptureTemplate()
			}
		}
		sl.env, sl.rt, sl.ctr = c, rt, c
	default:
		return fail(fmt.Errorf("unknown platform kind %v", pl.cfg.Kind))
	}

	// Register with the Dispatcher.
	p.Sleep(dispatcherConnect)

	sl.info.BootedAt = pl.E.Now()
	sl.info.BootTime = (pl.E.Now() - start).Duration()
	sl.info.MemMB = pl.slotMemMB(sl)
	sl.info.DiskBytes = pl.slotDiskBytes(sl)
	sl.info.Processes = len(sl.rt.Processes())
	sl.info.LastUsed = pl.E.Now()
	pl.db.Transition(sl.id, LifecycleActive) // reserved for the caller
	if len(pl.bootSamples) < maxBootSamples {
		pl.bootSamples = append(pl.bootSamples, sl.info.BootTime)
	} else {
		pl.bootSamples[pl.bootNext] = sl.info.BootTime
		pl.bootNext = (pl.bootNext + 1) % maxBootSamples
	}
	if pl.om != nil {
		pl.om.boots.Inc()
		pl.om.bootTime.Observe(sl.info.BootTime)
		if sl.viaTemplate {
			pl.om.tmplClones.Inc()
			pl.om.tmplClone.Observe(sl.info.BootTime)
		}
		pl.om.poolSize.Set(int64(pl.slots.n))
	}
	return sl, nil
}

// maxBootSamples bounds the boot-duration window BootDurations reports:
// enough for any bench cell or scenario assertion, small enough that a
// platform churning runtimes for days holds steady memory.
const maxBootSamples = 4096

// BootDurations returns a copy of the most recent completed boot
// durations (up to maxBootSamples), in boot order. Scenario boot-latency
// assertions aggregate these across cluster shards.
func (pl *Platform) BootDurations() []time.Duration {
	out := make([]time.Duration, 0, len(pl.bootSamples))
	out = append(out, pl.bootSamples[pl.bootNext:]...)
	out = append(out, pl.bootSamples[:pl.bootNext]...)
	return out
}

func kindSlug(k Kind) string {
	switch k {
	case KindVM:
		return "vm"
	case KindRattrapWO:
		return "cac-wo"
	default:
		return "cac"
	}
}

func (pl *Platform) slotMemMB(sl *slot) int {
	if sl.vmach != nil {
		return sl.vmach.MemReservedMB()
	}
	return sl.rt.MemMB()
}

func (pl *Platform) slotDiskBytes(sl *slot) host.Bytes {
	switch {
	case sl.vmach != nil:
		return sl.vmach.DiskUsageBytes()
	case pl.cfg.Kind == KindRattrapWO:
		// Private rootfs copy plus the writable delta.
		var rootfs host.Bytes
		for _, l := range sl.ctr.FS().Layers()[1:] {
			rootfs += l.Size()
		}
		return rootfs + sl.ctr.DiskUsageBytes()
	default:
		// Optimized CAC: only the private delta; the Shared Resource
		// Layer is charged once, platform-wide.
		return sl.ctr.DiskUsageBytes()
	}
}

func (pl *Platform) removeSlot(sl *slot) {
	if sl.removed {
		return
	}
	sl.removed = true
	pl.slots.remove(sl, pl.E.Now())
	pl.sched.Forget(sl)
	delete(pl.byID, sl.id)
	pl.db.Remove(sl.id)
	pl.ft.clear(sl.id)
	if sl.cordoned {
		pl.cordonedLive--
	}
	if pl.om != nil {
		pl.om.poolSize.Set(int64(pl.slots.n))
	}
	if pl.scaler != nil && pl.schedulable() < pl.cfg.MinRuntimes {
		pl.kickScaler() // the pool fell through its floor; re-warm
	}
}

// Prepare implements offload.Gateway: access-control analysis, then
// Dispatcher allocation (booting a runtime if needed — the runtime-
// preparation phase the device observes).
func (pl *Platform) Prepare(p *sim.Proc, req offload.ExecRequest) (offload.Session, error) {
	tbl := pl.access.Analyze(p, pl.Server, req.App, grantedFor(req.App, req.FileBytes))
	if tbl.Blocked {
		return nil, fmt.Errorf("%w: %s: %w", ErrBlocked, req.App, ErrAppBlocked)
	}
	sl, err := pl.acquireSlot(p, req.AID, req.Span(), req.Abort())
	if err != nil {
		return nil, err
	}
	s := &session{pl: pl, sl: sl, req: req}
	s.needCode = !sl.rt.CodeLoaded(req.AID)
	if s.needCode && pl.warehouse != nil {
		switch {
		case pl.warehouse.Has(req.AID):
			s.needCode = false // warehouse hit: load locally, no transfer
			if pl.om != nil {
				pl.om.whHits.Inc()
			}
		default:
			if sig, inflight := pl.warehouse.Inflight(req.AID); inflight {
				// Another device is pushing this code right now; wait for
				// it instead of transferring a duplicate.
				s.needCode = false
				s.waitPush = sig
				if pl.om != nil {
					pl.om.whCoalesced.Inc()
				}
			} else {
				pl.warehouse.Claim(pl.E, req.AID) // this session pushes
				s.claimed = true
				if pl.om != nil {
					pl.om.whMisses.Inc()
				}
			}
		}
	}
	return s, nil
}

// session binds one request to a prepared runtime.
type session struct {
	pl       *Platform
	sl       *slot
	req      offload.ExecRequest
	needCode bool
	released bool
	pushed   bool
	claimed  bool        // this session owns the in-flight push for its AID
	waitPush *sim.Signal // fires when another session's push lands
}

// NeedCode reports whether the device must transfer the mobile code.
func (s *session) NeedCode() bool { return s.needCode }

// stageStart stamps the virtual clock when any stage instrument is active
// for this session — a span attached to the request or a registry
// installed on the platform. It returns -1 (and stageEnd reports off)
// otherwise, so a request with observability disabled performs no clock
// reads at all.
func (s *session) stageStart(sp *obs.Span) sim.Time {
	if sp == nil && s.pl.om == nil {
		return -1
	}
	return s.pl.E.Now()
}

// stageEnd closes a stageStart measurement.
func (s *session) stageEnd(start sim.Time) (time.Duration, bool) {
	if start < 0 {
		return 0, false
	}
	return (s.pl.E.Now() - start).Duration(), true
}

// PushCode receives the code blob: Rattrap stages it in the App Warehouse
// ("once and for all"), everyone loads it into the runtime's ClassLoader.
func (s *session) PushCode(p *sim.Proc, push offload.CodePush) error {
	if push.AID != s.req.AID {
		return fmt.Errorf("core: code push AID %s does not match request %s", push.AID, s.req.AID)
	}
	sp := s.req.Span()
	stageStart := s.stageStart(sp)
	if s.pl.warehouse != nil {
		if err := s.pl.warehouse.Put(p, push.AID, push.App, push.Size); err != nil {
			return err
		}
		s.pl.warehouse.settle(push.AID)
	}
	if err := s.sl.rt.LoadCode(p, push.AID, push.Size, false); err != nil {
		return err
	}
	if d, on := s.stageEnd(stageStart); on {
		sp.Add(obs.StageCodeStage, d)
		if s.pl.om != nil {
			s.pl.om.codeStage.Observe(d)
		}
	}
	if s.pl.warehouse != nil {
		s.pl.warehouse.BindCID(push.AID, s.sl.id)
		s.pl.noteWarehouse()
	}
	s.sl.info.Traffic.CodeUp += push.Size
	s.pushed = true
	return nil
}

// NegotiateChunks implements offload.ChunkedSession: answer a device's
// chunk-hash offer with the subset the warehouse is missing. The offer
// frame is the opt-in: a device that never sends one pushes full blobs. A
// Supported=false reply (no warehouse to stage chunks in) tells the
// device to fall back to the full PushCode transfer.
func (s *session) NegotiateChunks(p *sim.Proc, offer offload.ChunkOffer) (offload.ChunkNeed, error) {
	need := offload.ChunkNeed{Seq: offer.Seq, AID: offer.AID}
	if offer.AID != s.req.AID {
		return need, fmt.Errorf("core: chunk offer AID %s does not match request %s", offer.AID, s.req.AID)
	}
	if s.pl.warehouse == nil {
		return need, nil
	}
	// A degenerate or malformed offer (zero-size blob, empty or truncated
	// hash list — the wire codec accepts an empty Params) never enters the
	// delta path: answering Supported=false sends the device down the full
	// PushCode fallback instead of letting a crafted frame reach the
	// warehouse's chunk staging.
	if offer.Size <= 0 || len(offer.Hashes) != offload.ChunkCount(offer.Size) {
		return need, nil
	}
	need.Supported = true
	need.Missing = s.pl.warehouse.MissingChunks(offer.Hashes)
	return need, nil
}

// PushChunks completes a negotiated delta push: only the missing chunks
// crossed the network; the warehouse stages them (in parallel) into the
// content-addressed store, and the runtime loads the reassembled blob
// from the warehouse.
func (s *session) PushChunks(p *sim.Proc, offer offload.ChunkOffer, missing []uint64) error {
	if offer.AID != s.req.AID {
		return fmt.Errorf("core: chunk push AID %s does not match request %s", offer.AID, s.req.AID)
	}
	if s.pl.warehouse == nil {
		return fmt.Errorf("core: %s: chunked push not negotiated", offer.AID)
	}
	sp := s.req.Span()
	stageStart := s.stageStart(sp)
	if err := s.pl.warehouse.PutChunked(p, offer.AID, offer.App, offer.Size, offer.Hashes, missing); err != nil {
		return err
	}
	s.pl.warehouse.settle(offer.AID)
	if err := s.sl.rt.LoadCode(p, offer.AID, offer.Size, true); err != nil {
		return err
	}
	if d, on := s.stageEnd(stageStart); on {
		sp.Add(obs.StageChunkStage, d)
		if s.pl.om != nil {
			s.pl.om.chunkStage.Observe(d)
		}
	}
	s.pl.warehouse.BindCID(offer.AID, s.sl.id)
	s.pl.noteWarehouse()
	s.sl.info.Traffic.CodeUp += offload.DeltaBytes(offer, missing)
	s.pushed = true
	return nil
}

// noteWarehouse runs capacity enforcement after a staging event and
// refreshes the warehouse volume instruments.
func (pl *Platform) noteWarehouse() {
	if pl.warehouse == nil {
		return
	}
	dropped := pl.warehouse.EnforceCapacity()
	if pl.om == nil {
		return
	}
	if dropped > 0 {
		pl.om.whEvictions.Add(int64(dropped))
	}
	pl.om.whBytes.Set(int64(pl.warehouse.StoredBytes()))
}

// Execute runs the task, enforcing the permission table on each workflow
// that leaves the container.
func (s *session) Execute(p *sim.Proc) (offload.Result, error) {
	pl, sl, req := s.pl, s.sl, s.req
	sp := req.Span()
	// Warehouse-sourced code load (no device transfer happened).
	for !sl.rt.CodeLoaded(req.AID) {
		if pl.warehouse == nil {
			return offload.Result{}, fmt.Errorf("core: %s: code %s missing and no warehouse", sl.id, req.AID)
		}
		if s.waitPush != nil && !s.waitPush.Fired() {
			p.Wait(s.waitPush) // the in-flight first push, or a re-claim's
		}
		s.waitPush = nil
		if entry, ok := pl.warehouse.Lookup(req.AID); ok {
			loadStart := s.stageStart(sp)
			if err := sl.rt.LoadCode(p, req.AID, entry.Size, true); err != nil {
				return offload.Result{}, err
			}
			if d, on := s.stageEnd(loadStart); on {
				sp.Add(obs.StageWarehouseLoad, d)
				if pl.om != nil {
					pl.om.whLoad.Observe(d)
				}
			}
			pl.warehouse.BindCID(req.AID, sl.id)
			break
		}
		// The claiming device aborted before delivering the code. If some
		// other waiter already re-claimed the push, wait for it; otherwise
		// exactly this session re-claims, and its device must transfer the
		// code after all — surfaced as ErrCodeNeeded so the caller runs
		// the code-push exchange and calls Execute again.
		if sig, inflight := pl.warehouse.Inflight(req.AID); inflight {
			s.waitPush = sig
			continue
		}
		pl.warehouse.Claim(pl.E, req.AID)
		s.claimed = true
		s.needCode = true
		return offload.Result{}, offload.ErrCodeNeeded
	}

	// Request-based access control on the workflows this task performs.
	checks := []Permission{PermExec, PermBinder}
	if req.FileBytes > 0 {
		checks = append(checks, PermFSWrite, PermFSRead)
	}
	for _, op := range checks {
		if err := pl.access.Check(req.App, op); err != nil {
			return offload.Result{Err: err.Error()}, nil
		}
	}

	if pl.execFault != nil {
		if ferr := pl.execFault(p, sl.id, req.AID); ferr != nil {
			pl.noteFailure(sl.id, FailExec)
			return offload.Result{Err: ferr.Error()}, nil
		}
	}
	runStart := s.stageStart(sp)
	// When the realtime server already ran the computation on the request's
	// own goroutine, the task carries the outcome and the runtime charges the
	// modeled work without redoing it under the serialized engine.
	res, err := sl.rt.Execute(p, req.AID, req.Task(), pl.reg)
	if d, on := s.stageEnd(runStart); on && err == nil {
		sp.Add(obs.StageRun, d)
		if pl.om != nil {
			pl.om.runTime.Observe(d)
			pl.om.executes.Inc()
		}
	}
	if err != nil {
		pl.noteFailure(sl.id, FailExec)
		return offload.Result{Err: err.Error()}, nil
	}
	pl.ft.clear(sl.id) // a success breaks the runtime's failure streak

	sl.info.Executed++
	sl.info.MemMB = pl.slotMemMB(sl)
	sl.info.DiskBytes = pl.slotDiskBytes(sl)
	sl.info.Traffic.FileParamUp += req.ParamBytes + req.FileBytes
	sl.info.Traffic.ControlUp += offload.ControlBytes
	sl.info.Traffic.Down += res.Metrics.ResultBytes + offload.ControlBytes
	return offload.Result{Output: res.Metrics.Output, ResultBytes: res.Metrics.ResultBytes}, nil
}

// Release returns the runtime to the pool (or hands it to a queued
// request).
func (s *session) Release() {
	if s.released {
		return
	}
	s.released = true
	if s.claimed && !s.pushed && s.pl.warehouse != nil {
		// The owning device never delivered the code (error/abort): wake
		// any waiters so they fail fast instead of hanging on the signal.
		s.pl.warehouse.settle(s.req.AID)
	}
	s.pl.releaseSlot(s.sl)
}

// StopRuntime shuts one runtime down and reclaims its resources; when the
// last container stops, the Android Container Driver modules are unloaded
// ("to avoid wasting memory").
func (pl *Platform) StopRuntime(p *sim.Proc, cid string) error {
	sl := pl.byID[cid]
	if sl == nil {
		return fmt.Errorf("core: no runtime %s", cid)
	}
	if st := sl.info.State; st != LifecycleIdle {
		return fmt.Errorf("core: runtime %s is %s", cid, st)
	}
	pl.db.Transition(cid, LifecycleDraining)
	sl.rt.Shutdown()
	var terr error
	if pl.teardownFault != nil {
		terr = pl.teardownFault(p, cid)
	}
	if terr == nil {
		switch {
		case sl.vmach != nil:
			terr = sl.vmach.Destroy(p)
		case sl.ctr != nil:
			terr = sl.ctr.Stop(p)
		}
	}
	// Teardown is best-effort: whatever happened to the guest, the slot
	// leaves the pool. Returning early on terr here used to strand the
	// slot in LifecycleDraining forever — still on the slot list, counting
	// against MaxRuntimes, its warehouse CID binding never released — so a
	// single failed Destroy permanently leaked a unit of pool capacity.
	if pl.warehouse != nil {
		pl.warehouse.UnbindCID(sl.id)
	}
	pl.db.Transition(cid, LifecycleReclaimed)
	if terr != nil {
		pl.noteFailure(cid, FailTeardown)
		// A clean Stop/Destroy evicts the guest's private layer from the
		// page cache itself; a failed teardown never got that far, and the
		// layer's keys are never read (or reused) again either way.
		sl.env.FS().Upper().DropCacheOn(pl.Server)
	}
	if sl.rootfs != nil {
		sl.rootfs.DropCacheOn(pl.Server) // neither Stop outcome touches a lower layer
	}
	pl.removeSlot(sl)
	if pl.cfg.Kind != KindVM && pl.slots.n == 0 {
		_ = acd.UnloadAll(pl.Kernel) // best effort; fails only if still referenced
	}
	if terr != nil {
		return fmt.Errorf("core: stopping %s: %w", cid, terr)
	}
	return nil
}

// StopAll stops every idle runtime.
func (pl *Platform) StopAll(p *sim.Proc) error {
	ids := make([]string, 0, pl.slots.n)
	pl.slots.each(func(sl *slot) { ids = append(ids, sl.id) })
	for _, id := range ids {
		if err := pl.StopRuntime(p, id); err != nil {
			return err
		}
	}
	return nil
}

// RuntimeFS returns a runtime's filesystem view (access-profile
// measurements like Observation 4 inspect its layers).
func (pl *Platform) RuntimeFS(cid string) (*unionfs.Mount, bool) {
	if sl := pl.byID[cid]; sl != nil && sl.env != nil {
		return sl.env.FS(), true
	}
	return nil, false
}

// RuntimeCount returns the pool size.
func (pl *Platform) RuntimeCount() int { return pl.slots.n }

// PoolUsage returns the pool size integrated over virtual time from zero
// to now, in runtime-seconds (divided by the elapsed seconds it is the
// time-weighted mean pool size), and the largest pool the platform held.
// Booting slots count: they hold their memory from the moment they exist.
func (pl *Platform) PoolUsage() (runtimeSecs float64, peak int) {
	pl.slots.advance(pl.E.Now())
	return time.Duration(pl.slots.area).Seconds(), pl.slots.peak
}

// QueueLength returns how many requests wait for a runtime.
func (pl *Platform) QueueLength() int { return pl.waitQ.len() }

// TotalDiskBytes is the platform's storage bill: every runtime's private
// data plus shared structures charged once.
func (pl *Platform) TotalDiskBytes() host.Bytes {
	var t host.Bytes
	pl.slots.each(func(sl *slot) { t += pl.slotDiskBytes(sl) })
	if pl.shared != nil {
		t += pl.shared.Layer.Size()
	}
	if pl.tmplLayer != nil {
		t += pl.tmplLayer.Size() // the frozen template upper, charged once
	}
	return t
}
