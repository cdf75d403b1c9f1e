package main

import (
	"fmt"
	"io"
	"time"

	"rattrap/internal/core"
	"rattrap/internal/device"
	"rattrap/internal/host"
	"rattrap/internal/netsim"
	"rattrap/internal/offload"
	"rattrap/internal/sim"
	"rattrap/internal/workload"
)

// The boot mode measures the cold-prepare kill: the same runtime class
// booted cold, booted by cloning the captured template, and an app
// family's code pushed full vs as a content-addressed delta. All times
// are virtual. Two floors are gates, not just report fields: template
// clones must be >=10x faster than cold boots, and the family delta must
// move <30% of the full-push bytes.

const (
	bootBenchRuntimes  = 6
	bootSpeedupFloor   = 10.0
	deltaRatioCeiling  = 0.30
	deltaFamilyBase    = 5 * host.MB
	deltaFamilyVariant = 5*host.MB + 512*host.KB
)

type bootCell struct {
	Boots      int   `json:"boots"`
	MeanBootNs int64 `json:"mean_boot_ns"`
	MaxBootNs  int64 `json:"max_boot_ns"`
}

type templateCell struct {
	Boots         int     `json:"boots"`
	CaptureBootNs int64   `json:"capture_boot_ns"`
	CloneMeanNs   int64   `json:"clone_mean_boot_ns"`
	CloneMaxNs    int64   `json:"clone_max_boot_ns"`
	SpeedupX      float64 `json:"speedup_x"`
}

type deltaCell struct {
	App            string  `json:"app"`
	FullPushBytes  int64   `json:"full_push_bytes"`
	DeltaPushBytes int64   `json:"delta_push_bytes"`
	Ratio          float64 `json:"ratio"`
	SharedChunks   int     `json:"shared_chunks"`
	TotalChunks    int     `json:"total_chunks"`
}

type bootReport struct {
	Seed     int64        `json:"seed"`
	Cold     bootCell     `json:"cold"`
	Template templateCell `json:"template"`
	Delta    deltaCell    `json:"warehouse_delta"`
}

func runBoot(w io.Writer, seed int64) (any, error) {
	cold, err := bootCellRun(seed, false)
	if err != nil {
		return nil, fmt.Errorf("cold cell: %w", err)
	}
	tmpl, err := bootCellRun(seed, true)
	if err != nil {
		return nil, fmt.Errorf("template cell: %w", err)
	}
	delta, err := deltaCellRun(seed)
	if err != nil {
		return nil, fmt.Errorf("delta cell: %w", err)
	}

	rep := &bootReport{Seed: seed, Delta: *delta}
	rep.Cold.Boots = len(cold)
	rep.Cold.MeanBootNs, rep.Cold.MaxBootNs = meanMaxNs(cold)
	rep.Template.Boots = len(tmpl)
	rep.Template.CaptureBootNs = tmpl[0].Nanoseconds() // boot 0 is the full capture boot
	rep.Template.CloneMeanNs, rep.Template.CloneMaxNs = meanMaxNs(tmpl[1:])
	rep.Template.SpeedupX = float64(rep.Cold.MeanBootNs) / float64(rep.Template.CloneMeanNs)

	fmt.Fprintf(w, "boot: cold mean %v, template clone mean %v (%.1fx); family delta %.1f%% of full push\n",
		time.Duration(rep.Cold.MeanBootNs), time.Duration(rep.Template.CloneMeanNs),
		rep.Template.SpeedupX, rep.Delta.Ratio*100)

	if rep.Template.SpeedupX < bootSpeedupFloor {
		return rep, fmt.Errorf("template clone speedup %.1fx is below the %.0fx floor (cold %v, clone %v)",
			rep.Template.SpeedupX, bootSpeedupFloor,
			time.Duration(rep.Cold.MeanBootNs), time.Duration(rep.Template.CloneMeanNs))
	}
	if rep.Delta.Ratio >= deltaRatioCeiling {
		return rep, fmt.Errorf("family delta is %.0f%% of the full push, want < %.0f%%",
			rep.Delta.Ratio*100, deltaRatioCeiling*100)
	}
	return rep, nil
}

func meanMaxNs(ds []time.Duration) (mean, longest int64) {
	var total int64
	for _, d := range ds {
		total += d.Nanoseconds()
		if d.Nanoseconds() > longest {
			longest = d.Nanoseconds()
		}
	}
	return total / int64(len(ds)), longest
}

// bootCellRun boots bootBenchRuntimes runtimes back to back on a fresh
// Rattrap platform and returns their durations in boot order.
func bootCellRun(seed int64, templateBoot bool) ([]time.Duration, error) {
	e := sim.NewEngine(seed)
	cfg := core.DefaultConfig(core.KindRattrap)
	cfg.MaxRuntimes = bootBenchRuntimes
	cfg.TemplateBoot = templateBoot
	pl := core.New(e, cfg)
	var bootErr error
	e.Spawn("boot-bench", func(p *sim.Proc) {
		for i := 0; i < bootBenchRuntimes; i++ {
			if _, err := pl.BootRuntime(p); err != nil {
				bootErr = err
				return
			}
		}
	})
	e.Run()
	if bootErr != nil {
		return nil, bootErr
	}
	boots := pl.BootDurations()
	if len(boots) != bootBenchRuntimes {
		return nil, fmt.Errorf("booted %d runtimes, want %d", len(boots), bootBenchRuntimes)
	}
	return boots, nil
}

// deltaCellRun pushes an app family (same app, two code sizes sharing
// their library prefix) from two chunked devices and reports the bytes
// the second push actually moved.
func deltaCellRun(seed int64) (*deltaCell, error) {
	e := sim.NewEngine(seed)
	pl := core.New(e, core.DefaultConfig(core.KindRattrap))
	app, err := workload.ByName(workload.NameLinpack)
	if err != nil {
		return nil, err
	}

	var runErr error
	var deltaUp host.Bytes
	e.Spawn("delta-bench", func(p *sim.Proc) {
		d1, err := device.New(e, "phone-1", netsim.LANWiFi())
		if err != nil {
			runErr = err
			return
		}
		d2, err := device.New(e, "phone-2", netsim.LANWiFi())
		if err != nil {
			runErr = err
			return
		}
		d1.EnableChunkedPush(true)
		d2.EnableChunkedPush(true)
		if _, _, err := d1.Offload(p, d1.NewTask(app), deltaFamilyBase, pl); err != nil {
			runErr = err
			return
		}
		if _, _, err := d2.Offload(p, d2.NewTask(app), deltaFamilyVariant, pl); err != nil {
			runErr = err
			return
		}
		deltaUp = d2.Traffic().CodeUp
	})
	e.Run()
	if runErr != nil {
		return nil, runErr
	}

	base := offload.SyntheticManifest(app.Name(), deltaFamilyBase)
	variant := offload.SyntheticManifest(app.Name(), deltaFamilyVariant)
	have := make(map[uint64]bool, len(base))
	for _, h := range base {
		have[h] = true
	}
	shared := 0
	for _, h := range variant {
		if have[h] {
			shared++
		}
	}
	return &deltaCell{
		App:            app.Name(),
		FullPushBytes:  int64(deltaFamilyVariant),
		DeltaPushBytes: int64(deltaUp),
		Ratio:          float64(deltaUp) / float64(deltaFamilyVariant),
		SharedChunks:   shared,
		TotalChunks:    len(variant),
	}, nil
}
