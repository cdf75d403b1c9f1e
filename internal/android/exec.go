package android

import (
	"fmt"
	"strconv"

	"rattrap/internal/host"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// CodeLoaded reports whether the ClassLoader already holds the app's code
// (the AID in the warehouse's cache table). A dispatcher that routes
// same-app requests to the same runtime skips the load entirely.
func (r *Runtime) CodeLoaded(aid string) bool {
	_, ok := r.loaded[aid]
	return ok
}

// LoadCode runs the ClassLoader over a mobile code blob of the given size,
// blocking p for the dex parse/verify CPU. Reading the blob is the caller's
// to charge: freshly received code is already in memory, and code out of
// the App Warehouse is read by the warehouse, which knows its layout.
func (r *Runtime) LoadCode(p *sim.Proc, aid string, size host.Bytes) error {
	if !r.up {
		return fmt.Errorf("android: %s: runtime not up", r.env.Name())
	}
	if r.CodeLoaded(aid) {
		return nil
	}
	work := classLoadWorkPerMB * host.Work(float64(size)/float64(host.MB))
	r.env.Host().Compute(p, work, r.env.CPUEff())
	r.loaded[aid] = size
	r.log("ClassLoader", "loaded ", aid)
	return nil
}

// ExecResult is the outcome of one offloaded task.
type ExecResult struct {
	Metrics workload.Metrics
	// ComputeTime / IOTime split the execution phase for the harness.
	ComputeSeconds float64
	IOSeconds      float64
}

// Execute runs the offloaded task whose code was loaded under aid,
// blocking p for the modeled execution time:
//
//   - Binder traffic between the offload controller and the app process;
//   - staging the transferred input files on the offloading I/O mount
//     ("burn after reading": inputs are deleted afterwards);
//   - the real computation (the workload algorithm actually runs), with
//     modeled work charged to the host at the environment's efficiency;
//   - offloading I/O (reads of staged files and databases).
func (r *Runtime) Execute(p *sim.Proc, aid string, task workload.Task, reg *workload.Registry) (ExecResult, error) {
	if !r.up {
		return ExecResult{}, fmt.Errorf("android: %s: runtime not up", r.env.Name())
	}
	if !r.CodeLoaded(aid) {
		return ExecResult{}, fmt.Errorf("android: %s: code %s not loaded", r.env.Name(), aid)
	}
	h := r.env.Host()
	e := p.E

	// Dispatch through Binder: am -> offloadcontroller -> app process.
	for i := 0; i < 2; i++ {
		if _, err := r.CallService("offloadcontroller", 1, task.Params); err != nil {
			return ExecResult{}, err
		}
		h.Compute(p, binderTxnWork, r.env.CPUEff())
	}

	// The task's file on the offloading I/O mount. A task with no input
	// files and no extra output never touches it, so the name is built by
	// the first branch that needs it.
	var staged string
	stagePath := func() string {
		if staged == "" {
			staged = "/offload/" + r.env.Name() + "/task-" + strconv.Itoa(r.executed)
		}
		return staged
	}

	// Stage input files on the offloading I/O mount.
	ioStart := e.Now()
	if task.FileBytes > 0 {
		if err := r.offload.Write(p, stagePath(), task.FileBytes, nil, r.env.IOEff()); err != nil {
			return ExecResult{}, err
		}
	}
	ioStaged := (e.Now() - ioStart).Duration().Seconds()

	// Run the real workload. The algorithm executes here and now (its
	// wall-clock cost is real host CPU, not simulated time); its metered
	// Work and I/O drive the simulated clock below.
	m, err := reg.Execute(task)
	if err != nil {
		return ExecResult{}, fmt.Errorf("android: %s: %s.%s: %w", r.env.Name(), task.App, task.Method, err)
	}

	computeStart := e.Now()
	h.Compute(p, m.Work, r.env.CPUEff())
	computeSec := (e.Now() - computeStart).Duration().Seconds()

	// Offloading I/O: re-read staged inputs, stream databases. The part
	// covered by the staged file goes through the offload mount; the
	// remainder (databases and app data) is a per-runtime disk read that
	// the page cache naturally absorbs on repeat scans.
	ioStart2 := e.Now()
	remaining := m.IORead
	if task.FileBytes > 0 && remaining > 0 {
		if _, ok := r.offload.Stat(stagePath()); ok {
			if _, _, err := r.offload.Read(p, stagePath(), r.env.IOEff()); err != nil {
				return ExecResult{}, err
			}
			remaining -= task.FileBytes
		}
	}
	if extra := m.IOWrite - task.FileBytes; extra > 0 {
		tmp := stagePath() + ".tmp"
		if err := r.offload.Write(p, tmp, extra, nil, r.env.IOEff()); err != nil {
			return ExecResult{}, err
		}
		_ = r.offload.Remove(tmp)
	}
	if remaining > 0 {
		// Database/app-data streaming; too large to stay page-cached under
		// memory pressure, so it pays disk bandwidth every scan.
		h.DiskRead(p, "", remaining, true, r.env.IOEff())
	}
	// Burn after reading: drop the staged input.
	if task.FileBytes > 0 {
		_ = r.offload.Remove(stagePath())
	}
	ioSec := ioStaged + (e.Now() - ioStart2).Duration().Seconds()

	// Server side of mid-execution interaction: each client exchange
	// crosses the environment's network path and bounces through the
	// offload controller. (The client adds its own RTT per exchange.)
	for i := 0; i < task.RoundTrips; i++ {
		if _, err := r.CallService("offloadcontroller", 3, nil); err != nil {
			return ExecResult{}, err
		}
		h.Compute(p, binderTxnWork, r.env.CPUEff())
		p.Sleep(r.env.NetOverhead())
	}

	// Reply transaction.
	if _, err := r.CallService("offloadcontroller", 2, nil); err != nil {
		return ExecResult{}, err
	}
	h.Compute(p, binderTxnWork, r.env.CPUEff())

	r.executed++
	r.log("offload", "task ", task.App, ".", task.Method, " done: ", m.Output)
	return ExecResult{Metrics: m, ComputeSeconds: computeSec, IOSeconds: ioSec}, nil
}

// TouchOnDemand lazily faults in i-th of the image's on-demand core files
// (class loading and dlopen during offloaded execution). A booted runtime's
// background scan walks the same list on its own, which is how the
// Observation-4 access profile converges to "everything except the
// strippable set"; this is the one-file step for a caller that wants a
// touch at a time of its choosing.
func (r *Runtime) TouchOnDemand(p *sim.Proc, idx int) error {
	files := r.cfg.Image.OnDemand
	if len(files) == 0 {
		return nil
	}
	_, _, err := r.env.FS().ReadRef(p, files[idx%len(files)], r.env.IOEff())
	return err
}

// OnDemandCount reports how many on-demand files the image has.
func (r *Runtime) OnDemandCount() int { return len(r.cfg.Image.OnDemand) }
