package core

import (
	"errors"
	"fmt"

	"rattrap/internal/host"
	"rattrap/internal/sim"
)

// Permission is one capability an offloaded operation may require.
type Permission string

// Permissions checked by the Request-based Access Controller.
const (
	PermExec    Permission = "exec"
	PermFSRead  Permission = "fs-read"
	PermFSWrite Permission = "fs-write"
	PermNet     Permission = "net"
	PermBinder  Permission = "binder"
)

// Access-control errors.
var (
	ErrPermissionDenied = errors.New("core: permission denied")
	ErrAppBlocked       = errors.New("core: app blocked by access controller")
)

// PermTable is one app's permission table. Offloading requests from the
// same application share one table, so analysis happens only once per app
// (§IV-E).
type PermTable struct {
	App        string
	Allowed    map[Permission]bool
	Violations int
	Blocked    bool
}

// AccessController is the Request-based Access Controller: it analyzes
// each app's first request to generate a permission table, filters every
// workflow coming out of a Cloud Android Container, counts violations, and
// blocks the app once violations reach the threshold. It remedies the
// weaker isolation of OS-level virtualization and guards the shared
// architecture (Shared Resource Layer, App Warehouse).
type AccessController struct {
	threshold int
	tables    map[string]*PermTable
}

// analysisWork is the CPU spent generating one permission table.
const analysisWork host.Work = 120

// NewAccessController returns a controller that blocks an app after
// threshold violations.
func NewAccessController(threshold int) *AccessController {
	if threshold <= 0 {
		threshold = 3
	}
	return &AccessController{threshold: threshold, tables: make(map[string]*PermTable)}
}

// Analyze returns the app's permission table, generating it on first sight
// (charging analysis CPU on h). granted lists the permissions the request
// analysis concludes the app may use.
func (ac *AccessController) Analyze(p *sim.Proc, h *host.Host, app string, granted []Permission) *PermTable {
	if t, ok := ac.tables[app]; ok {
		return t
	}
	h.Compute(p, analysisWork, 1.0)
	t := &PermTable{App: app, Allowed: make(map[Permission]bool, len(granted))}
	for _, g := range granted {
		t.Allowed[g] = true
	}
	ac.tables[app] = t
	return t
}

// Table returns the app's table if it was analyzed.
func (ac *AccessController) Table(app string) (*PermTable, bool) {
	t, ok := ac.tables[app]
	return t, ok
}

// Check filters one operation flowing out of a container. A disallowed
// operation records a violation; reaching the threshold blocks the app's
// future requests entirely.
func (ac *AccessController) Check(app string, op Permission) error {
	t, ok := ac.tables[app]
	if !ok {
		return fmt.Errorf("core: app %s not analyzed", app)
	}
	if t.Blocked {
		return fmt.Errorf("%w: %s", ErrAppBlocked, app)
	}
	if t.Allowed[op] {
		return nil
	}
	t.Violations++
	if t.Violations >= ac.threshold {
		t.Blocked = true
		return fmt.Errorf("%w: %s (violation threshold reached)", ErrAppBlocked, app)
	}
	return fmt.Errorf("%w: %s needs %s", ErrPermissionDenied, app, op)
}

// The two permission sets request analysis derives. Analyze only reads
// them, so every request shares one of these instead of building its own.
var (
	grantsNoFiles = []Permission{PermExec, PermBinder, PermNet}
	grantsFiles   = []Permission{PermExec, PermBinder, PermFSRead, PermFSWrite, PermNet}
)

// grantedFor maps the benchmark apps to the permissions request analysis
// derives for them: file-carrying apps get filesystem access, interactive
// apps get network callbacks, everything gets execution. The slice is
// shared: callers must not modify it.
func grantedFor(app string, fileBytes host.Bytes) []Permission {
	if fileBytes > 0 {
		return grantsFiles
	}
	return grantsNoFiles
}
