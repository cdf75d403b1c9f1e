// Package binder implements the semantics of Android's Binder IPC: a
// service manager (context manager), per-process handle tables, and
// synchronous transactions. One Context corresponds to one Binder device
// instance; with device namespaces (package kernel), every Cloud Android
// Container gets its own Context, so services registered inside one
// container are invisible to every other — the isolation property the
// paper gets from the Cells device-namespace framework.
//
// The package is pure logic (no simulated time): callers account for
// transaction CPU/copy costs. That keeps it independently testable and
// reusable from both the simulated and real-time paths.
package binder

import (
	"errors"
	"fmt"
)

// Errors returned by Binder operations.
var (
	ErrNoService     = errors.New("binder: no such service")
	ErrDuplicate     = errors.New("binder: service already registered")
	ErrBadHandle     = errors.New("binder: bad handle")
	ErrDeadBinder    = errors.New("binder: dead binder")
	ErrEmptyName     = errors.New("binder: empty service name")
	ErrNilTransactFn = errors.New("binder: nil transaction handler")
)

// TxnHandler serves incoming transactions: code selects the method, data is
// the marshalled parcel; it returns the reply parcel.
type TxnHandler func(code uint32, data []byte) ([]byte, error)

// Service is a registered Binder node.
type Service struct {
	name    string
	handler TxnHandler
	handle  uint32 // 0 until the first Lookup hands one out
	dead    bool
}

// Name returns the service's registered name.
func (s *Service) Name() string { return s.name }

// Stats records Binder activity for a context.
type Stats struct {
	Transactions int
	BytesIn      int64
	BytesOut     int64
	Lookups      int
}

// Context is one Binder device instance: the service-manager registry plus
// a handle table (handle h names handles[h-1]). The registry is the node
// slab itself: a boot registers a fixed table of about ten services, which a
// scan finds faster than a map is built. A node never moves — a Register
// past the slab's capacity starts a new slab and keeps the full one in
// older — and an unregistered node stays where it was, marked dead, for the
// handles that still name it.
type Context struct {
	slab    []Service
	older   [][]Service // full slabs, oldest first; nil until a Register outgrows a Reserve
	handles []*Service
	stats   Stats
	// firstHandles backs handles until it outgrows it: a runtime's requests
	// transact with the offload controller alone.
	firstHandles [4]*Service
}

// NewContext returns an empty Binder context (as created when the binder
// module initializes a device namespace).
func NewContext() *Context {
	c := &Context{}
	c.handles = c.firstHandles[:0]
	return c
}

// Reserve sizes the node slab for n more registrations, so a boot
// registering its fixed service table allocates nothing more.
func (c *Context) Reserve(n int) {
	if cap(c.slab)-len(c.slab) >= n {
		return
	}
	if len(c.slab) > 0 {
		c.older = append(c.older, c.slab)
	}
	c.slab = make([]Service, 0, n)
}

// find returns the live node registered as name, or nil.
func (c *Context) find(name string) *Service {
	for i := range c.slab {
		if s := &c.slab[i]; !s.dead && s.name == name {
			return s
		}
	}
	for _, slab := range c.older {
		for i := range slab {
			if s := &slab[i]; !s.dead && s.name == name {
				return s
			}
		}
	}
	return nil
}

// Register adds a named service, as servicemanager.addService would.
func (c *Context) Register(name string, h TxnHandler) (*Service, error) {
	if name == "" {
		return nil, ErrEmptyName
	}
	if h == nil {
		return nil, ErrNilTransactFn
	}
	if c.find(name) != nil {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if len(c.slab) == cap(c.slab) {
		c.Reserve(max(4, cap(c.slab)))
	}
	c.slab = append(c.slab, Service{name: name, handler: h})
	return &c.slab[len(c.slab)-1], nil
}

// Unregister removes a service and marks it dead; pending handles to it
// start returning ErrDeadBinder.
func (c *Context) Unregister(name string) error {
	s := c.find(name)
	if s == nil {
		return fmt.Errorf("%w: %s", ErrNoService, name)
	}
	s.dead = true
	return nil
}

// Lookup resolves a service name to a handle (servicemanager.getService).
func (c *Context) Lookup(name string) (uint32, error) {
	c.stats.Lookups++
	s := c.find(name)
	if s == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoService, name)
	}
	if s.handle == 0 {
		c.handles = append(c.handles, s)
		s.handle = uint32(len(c.handles))
	}
	return s.handle, nil
}

// Transact performs a synchronous transaction against a handle.
func (c *Context) Transact(handle uint32, code uint32, data []byte) ([]byte, error) {
	if handle == 0 || int(handle) > len(c.handles) {
		return nil, fmt.Errorf("%w: %d", ErrBadHandle, handle)
	}
	s := c.handles[handle-1]
	if s.dead {
		return nil, fmt.Errorf("%w: %s", ErrDeadBinder, s.name)
	}
	c.stats.Transactions++
	c.stats.BytesIn += int64(len(data))
	reply, err := s.handler(code, data)
	c.stats.BytesOut += int64(len(reply))
	return reply, err
}

// Call is Lookup+Transact in one step, the common client pattern.
func (c *Context) Call(service string, code uint32, data []byte) ([]byte, error) {
	h, err := c.Lookup(service)
	if err != nil {
		return nil, err
	}
	return c.Transact(h, code, data)
}

// Stats returns accumulated activity counters.
func (c *Context) Stats() Stats { return c.stats }
