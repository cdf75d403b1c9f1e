package android

import (
	"rattrap/internal/binder"
	"rattrap/internal/host"
)

// Cost tables for the Android boot stages. These are the calibration
// constants behind Table I: a full (non-customized) boot burns
// ≈9600 mops of CPU and ≈195 MB of image reads; the customized boot burns
// ≈3300 mops and reads the much smaller customized boot set, mostly from
// the shared-layer page cache. Memory numbers are tuned so the resident
// footprints land at the paper's measurements (110.56 MB full,
// 96.35 MB customized).

type procSpec struct {
	name string
	cpu  host.Work
	mem  int // MB
}

// initDaemons are the native daemons /init launches (Figure 4's init,
// netd, vold, servicemanager, ...). The modified init of a customized
// boot starts fewer of them and skips device-specific probing.
func initDaemons(customized bool) []procSpec {
	if customized {
		return customInitDaemons
	}
	return fullInitDaemons
}

var (
	fullInitDaemons = []procSpec{
		{"init", 200, 3},
		{"ueventd", 100, 1},
		{"servicemanager", 120, 2},
		{"netd", 250, 3},
		{"vold", 230, 3},
	}
	// vold (volume manager) is unnecessary without removable media;
	// ueventd has no hardware to enumerate.
	customInitDaemons = []procSpec{
		{"init", 80, 3},
		{"servicemanager", 60, 2},
		{"netd", 80, 3},
	}
)

// zygoteSpec is the class/resource preload stage.
func zygoteSpec(customized bool) procSpec {
	if customized {
		// Reduced preload list: no UI toolkit, no telephony stack.
		return procSpec{"zygote", 700, 34}
	}
	return procSpec{"zygote", 3600, 38}
}

// packageScanWork is the package-manager scan / dexopt bookkeeping.
func packageScanWork(customized bool) host.Work {
	if customized {
		return 300 // only the offload runtime package remains (vs 2200 full)
	}
	return 2200
}

const packageScanMem = 5

// coreServices run in every boot: they are what offloaded code actually
// needs (activity/package/alarm managers, power, network...).
var coreServices = []procSpec{
	{"activity", 340, 5},
	{"package", 390, 6},
	{"alarm", 120, 2},
	{"power", 100, 2},
	{"connectivity", 220, 4},
	{"content", 160, 3},
	{"appops", 90, 2},
	{"batterystats", 120, 2},
	{"jobscheduler", 140, 2},
	{"netstats", 130, 2},
}

// uiServices only start in a full boot; the customized OS removes them and
// fakes their interfaces with direct returns (§IV-B3: "without system UI,
// telephony, user interact").
var uiServices = []procSpec{
	{"window", 750, 2},
	{"surfaceflinger", 920, 3},
	{"inputmethod", 410, 1},
	{"telephony", 680, 2},
	{"wallpaper", 270, 1},
	{"audio", 460, 2},
	{"notification", 340, 1},
	{"statusbar", 280, 1},
	{"accessibility", 250, 1},
	{"launcher", 1000, 3},
	{"systemui", 870, 3},
}

// removedServiceSet names the services a customized runtime fakes.
var removedServiceSet = func() map[string]struct{} {
	m := make(map[string]struct{}, len(uiServices))
	for _, s := range uiServices {
		m[s.name] = struct{}{}
	}
	return m
}()

// fullServices is what a full (non-customized) boot starts.
var fullServices = append(append([]procSpec{}, coreServices...), uiServices...)

// services returns the system services for the boot flavor.
func services(customized bool) []procSpec {
	if customized {
		return coreServices
	}
	return fullServices
}

// serviceHandlers holds the trivial Binder handler of every process that
// registers a service. The customized OS "fakes the key interfaces with
// direct returns" for removed services; present services answer every call
// with the same small parcel. Neither depends on the runtime registering the
// service, so the handlers are built here and no boot allocates one.
var serviceHandlers = func() map[string]binder.TxnHandler {
	m := make(map[string]binder.TxnHandler, len(fullServices)+1)
	add := func(name string) {
		reply := []byte(name + ":ok")
		m[name] = func(code uint32, data []byte) ([]byte, error) { return reply, nil }
	}
	for _, s := range fullServices {
		add(s.name)
	}
	add("offloadcontroller")
	return m
}()

// Offload controller process costs. The customized runtime gives it larger
// staging buffers (part of the in-memory offloading I/O design), which is
// why the optimized footprint is not simply "full minus UI".
const offloadCtlWork host.Work = 280

func offloadCtlMem(customized bool) int {
	if customized {
		return 19
	}
	return 6
}

// ClassLoader costs: loading 1 MB of dex through ClassLoader.
const classLoadWorkPerMB host.Work = 160

// Binder transaction CPU cost per call (marshalling + context switches).
const binderTxnWork host.Work = 0.4
