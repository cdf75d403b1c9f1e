// Package acd implements the Android Container Driver (§IV-B1): the
// kernel-module package that dynamically extends the host kernel with the
// Android pseudo drivers a Cloud Android Container needs — Binder (IPC),
// Alarm (RTC-based timers), Logger (RAM log) and Ashmem (anonymous shared
// memory). All four are pseudo drivers with no physical device behind
// them, so the package works on any hardware platform; devices appear only
// while the modules are loaded, and Binder/Alarm/Logger are multiplexed
// per container through device namespaces.
//
// What the model reads of a driver is its presence (a boot without one of
// its devices fails), its loading (a .ko read, module_init CPU, resident
// memory, refcounts held by open handles) and its namespacing. Only Binder
// carries driver state — a per-namespace binder.Context the runtime's
// services register on. Alarm, Logger and Ashmem charge nothing while a
// runtime holds them open, so their devices are stateless nodes.
package acd

import (
	"errors"
	"fmt"

	"rattrap/internal/binder"
	"rattrap/internal/kernel"
	"rattrap/internal/sim"
)

// Module names as they appear in lsmod.
const (
	ModBinder = "cac_binder"
	ModAlarm  = "cac_alarm"
	ModLogger = "cac_logger"
	ModAshmem = "cac_ashmem"
)

// Device paths provided by the driver package.
const (
	DevBinder    = "/dev/binder"
	DevAlarm     = "/dev/alarm"
	DevLogMain   = "/dev/log/main"
	DevLogEvents = "/dev/log/events"
	DevAshmem    = "/dev/ashmem"
)

var requiredDevices = [...]string{DevBinder, DevAlarm, DevLogMain, DevLogEvents, DevAshmem}

// NumRequiredDevices is len(RequiredDevices()): a runtime holds one handle
// per required device in an array of this length.
const NumRequiredDevices = len(requiredDevices)

// RequiredDevices lists every device an Android boot needs. A container
// whose namespace cannot open all of them fails to start Android. The list
// is shared: callers must not modify it.
func RequiredDevices() []string { return requiredDevices[:] }

// Modules returns the Android Container Driver built for the given kernel
// release (the paper targets Linux 3.18.0). The specs are immutable: a
// platform builds them once and hands the same list to every LoadAll.
func Modules(release string) []*kernel.Module {
	return []*kernel.Module{
		{
			Name:     ModBinder,
			VerMagic: release,
			SizeKB:   180,
			LoadCost: 4,
			Devices: []kernel.DeviceSpec{
				{Name: DevBinder, Namespaced: true, New: func() any { return binder.NewContext() }},
			},
		},
		{
			Name:     ModAlarm,
			VerMagic: release,
			SizeKB:   24,
			LoadCost: 1,
			Devices: []kernel.DeviceSpec{
				{Name: DevAlarm, Namespaced: true},
			},
		},
		{
			Name:     ModLogger,
			VerMagic: release,
			SizeKB:   32,
			LoadCost: 1,
			Devices: []kernel.DeviceSpec{
				{Name: DevLogMain, Namespaced: true},
				{Name: DevLogEvents, Namespaced: true},
			},
		},
		{
			Name:     ModAshmem,
			VerMagic: release,
			SizeKB:   28,
			LoadCost: 1,
			Devices: []kernel.DeviceSpec{
				// Ashmem regions are kernel-global; processes share them by fd.
				{Name: DevAshmem, Namespaced: false},
			},
		},
	}
}

// LoadAll inserts every module of the driver package mods (from Modules),
// stopping at the first failure. It is idempotent across already-loaded
// modules, including one a concurrent boot inserted while this boot was
// reading it.
func LoadAll(p *sim.Proc, k *kernel.Kernel, mods []*kernel.Module) error {
	for _, m := range mods {
		if k.Loaded(m.Name) {
			continue
		}
		if err := k.Load(p, m); err != nil && !errors.Is(err, kernel.ErrModuleLoaded) {
			return fmt.Errorf("acd: loading %s: %w", m.Name, err)
		}
	}
	return nil
}

// UnloadAll removes every Android Container Driver module that is loaded
// and idle. Modules still referenced by open handles are left in place and
// reported via the error.
func UnloadAll(k *kernel.Kernel) error {
	var firstErr error
	for _, name := range []string{ModBinder, ModAlarm, ModLogger, ModAshmem} {
		if !k.Loaded(name) {
			continue
		}
		if err := k.Unload(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
