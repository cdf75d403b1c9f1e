package binder

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func echo(code uint32, data []byte) ([]byte, error) { return data, nil }

func TestRegisterLookupTransact(t *testing.T) {
	c := NewContext()
	if _, err := c.Register("activity", echo); err != nil {
		t.Fatal(err)
	}
	h, err := c.Lookup("activity")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Transact(h, 1, []byte("ping"))
	if err != nil || string(reply) != "ping" {
		t.Fatalf("transact = %q, %v", reply, err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	c := NewContext()
	c.Register("svc", echo)
	_, err := c.Register("svc", echo)
	if !errors.Is(err, ErrDuplicate) || err.Error() != "binder: service already registered: svc" {
		t.Fatalf("err = %v, want ErrDuplicate naming svc", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewContext()
	if _, err := c.Register("", echo); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("err = %v, want ErrEmptyName", err)
	}
	if _, err := c.Register("x", nil); !errors.Is(err, ErrNilTransactFn) {
		t.Fatalf("err = %v, want ErrNilTransactFn", err)
	}
}

func TestLookupMissing(t *testing.T) {
	c := NewContext()
	if _, err := c.Lookup("ghost"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", err)
	}
}

func TestBadHandle(t *testing.T) {
	c := NewContext()
	if _, err := c.Transact(99, 0, nil); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
}

func TestHandleReuse(t *testing.T) {
	c := NewContext()
	c.Register("svc", echo)
	h1, _ := c.Lookup("svc")
	h2, _ := c.Lookup("svc")
	if h1 != h2 {
		t.Fatalf("same service got different handles: %d vs %d", h1, h2)
	}
}

func TestUnregisterMissing(t *testing.T) {
	c := NewContext()
	if err := c.Unregister("ghost"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", err)
	}
}

func TestCall(t *testing.T) {
	c := NewContext()
	c.Register("math", func(code uint32, data []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("code=%d len=%d", code, len(data))), nil
	})
	reply, err := c.Call("math", 7, []byte("abc"))
	if err != nil || string(reply) != "code=7 len=3" {
		t.Fatalf("call = %q, %v", reply, err)
	}
}

func TestContextIsolation(t *testing.T) {
	// Two contexts (= two containers' device namespaces) do not see each
	// other's services.
	a, b := NewContext(), NewContext()
	a.Register("offloadcontroller", echo)
	if _, err := b.Lookup("offloadcontroller"); !errors.Is(err, ErrNoService) {
		t.Fatalf("context b sees context a's service: %v", err)
	}
}

func TestStats(t *testing.T) {
	c := NewContext()
	c.Register("svc", func(code uint32, data []byte) ([]byte, error) {
		return []byte("abcdef"), nil
	})
	c.Call("svc", 0, []byte("abc"))
	c.Call("svc", 0, []byte("de"))
	s := c.Stats()
	if s.Transactions != 2 || s.BytesIn != 5 || s.BytesOut != 12 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: any registered service can be looked up and transacted with,
// and payloads round-trip through an echo handler unchanged.
func TestPropertyEchoRoundTrip(t *testing.T) {
	f := func(name string, payload []byte) bool {
		if name == "" {
			return true
		}
		c := NewContext()
		if _, err := c.Register(name, echo); err != nil {
			return false
		}
		reply, err := c.Call(name, 0, payload)
		if err != nil {
			return false
		}
		if len(reply) != len(payload) {
			return false
		}
		for i := range reply {
			if reply[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// registerAllocs is what a context costs to stand up with a boot's service
// table reserved: the context and the node slab, which is also the registry.
// It was 6 while a registry map sized for 11 (four objects) indexed the
// slab, and before the slab the context and its two maps, then one node per
// service and four map growths: 18 for the customized table's 11.
const registerAllocs = 2

// ctxSink keeps the measured context on the heap, as a namespace's driver
// state is.
var ctxSink *Context

func TestRegisterAllocs(t *testing.T) {
	names := make([]string, 11) // the customized boot's ten core services and the offload controller
	for i := range names {
		names[i] = fmt.Sprintf("svc-%d", i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := NewContext()
		c.Reserve(len(names))
		for _, n := range names {
			if _, err := c.Register(n, echo); err != nil {
				t.Fatal(err)
			}
		}
		ctxSink = c
	})
	t.Logf("a context with %d services registered allocates %.0f objects", len(names), allocs)
	if allocs > registerAllocs {
		t.Fatalf("a context with %d services registered allocates %.0f objects, fence is %d", len(names), allocs, registerAllocs)
	}
}

// A runtime's requests transact with a service or two: the first handles a
// context hands out live in the context itself, so a context that has
// served its first calls still costs registerAllocs.
func TestFirstLookupsAllocNothing(t *testing.T) {
	names := []string{"offloadcontroller", "activity", "package", "alarm"}
	allocs := testing.AllocsPerRun(100, func() {
		c := NewContext()
		c.Reserve(len(names))
		for _, n := range names {
			c.Register(n, echo)
		}
		for _, n := range names {
			if _, err := c.Call(n, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		ctxSink = c
	})
	if allocs > registerAllocs {
		t.Fatalf("a context after its first %d calls has allocated %.0f objects, fence is %d", len(names), allocs, registerAllocs)
	}
}

// Nodes carved from a full slab must not move the ones handed out before:
// registering past a Reserve keeps every earlier *Service and handle valid.
func TestRegisterPastReserveKeepsNodes(t *testing.T) {
	c := NewContext()
	c.Reserve(2)
	var svcs []*Service
	for i := 0; i < 9; i++ {
		s, err := c.Register(fmt.Sprintf("svc-%d", i), echo)
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, s)
	}
	for i, s := range svcs {
		if want := fmt.Sprintf("svc-%d", i); s.Name() != want {
			t.Fatalf("node %d names %q after later registrations, want %q", i, s.Name(), want)
		}
		h, err := c.Lookup(s.Name())
		if err != nil {
			t.Fatal(err)
		}
		if h != uint32(i+1) {
			t.Fatalf("lookup %d got handle %d, want %d", i, h, i+1)
		}
	}
}

// A name unregistered is free again: the new node is a different one, the
// old handle stays dead, and a fresh Lookup reaches the new node.
func TestReRegisterAfterUnregister(t *testing.T) {
	c := NewContext()
	old, _ := c.Register("svc", echo)
	h1, _ := c.Lookup("svc")
	if err := c.Unregister("svc"); err != nil {
		t.Fatal(err)
	}
	s, err := c.Register("svc", func(uint32, []byte) ([]byte, error) { return []byte("new"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if s == old {
		t.Fatal("re-registration reused the dead node")
	}
	if _, err := c.Register("svc", echo); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second registration of a live name: err = %v, want ErrDuplicate", err)
	}
	if _, err := c.Transact(h1, 0, nil); !errors.Is(err, ErrDeadBinder) {
		t.Fatalf("old handle: err = %v, want ErrDeadBinder", err)
	}
	h2, err := c.Lookup("svc")
	if err != nil || h2 == h1 {
		t.Fatalf("lookup after re-registration = %d, %v; want a handle other than %d", h2, err, h1)
	}
	if reply, err := c.Transact(h2, 0, nil); err != nil || string(reply) != "new" {
		t.Fatalf("new handle: %q, %v", reply, err)
	}
}

// A dead name resolves like one never registered.
func TestDeadNameIsGone(t *testing.T) {
	c := NewContext()
	c.Register("svc", echo)
	c.Register("other", echo)
	if err := c.Unregister("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("svc"); !errors.Is(err, ErrNoService) {
		t.Fatalf("Lookup: err = %v, want ErrNoService", err)
	}
	if err := c.Unregister("svc"); !errors.Is(err, ErrNoService) {
		t.Fatalf("second Unregister: err = %v, want ErrNoService", err)
	}
	if _, err := c.Call("svc", 0, nil); !errors.Is(err, ErrNoService) {
		t.Fatalf("Call: err = %v, want ErrNoService", err)
	}
}

// A dead node is skipped in every slab: its name resolves to nothing, the
// live ones around it still resolve.
func TestServicesSkipsDeadAcrossSlabs(t *testing.T) {
	c := NewContext()
	c.Reserve(2)
	for _, n := range []string{"zygote", "activity", "package", "alarm", "power"} {
		c.Register(n, echo)
	}
	c.Unregister("activity") // in the first slab
	c.Unregister("power")    // in the current one
	for _, n := range []string{"zygote", "activity", "package", "alarm", "power"} {
		dead := n == "activity" || n == "power"
		if _, err := c.Lookup(n); dead != errors.Is(err, ErrNoService) {
			t.Fatalf("Lookup(%s): err = %v, dead = %v", n, err, dead)
		}
	}
}

// Every node, in the first slab or a later one, resolves to itself after a
// Reserve replaced the slab: found by name, at the address Register gave.
func TestReserveKeepsEveryNodeResolvable(t *testing.T) {
	c := NewContext()
	c.Reserve(3)
	nodes := map[string]*Service{}
	for i := 0; i < 3; i++ {
		n := fmt.Sprintf("first-%d", i)
		nodes[n], _ = c.Register(n, echo)
	}
	c.Reserve(5) // the slab is full: a new one, the first kept
	for i := 0; i < 7; i++ {
		n := fmt.Sprintf("later-%d", i) // outgrows the second slab too
		nodes[n], _ = c.Register(n, echo)
	}
	for n, s := range nodes {
		if got := c.find(n); got != s {
			t.Fatalf("%s resolves to %p, registered at %p", n, got, s)
		}
		if _, err := c.Call(n, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Register("first-1", echo); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("a name in a full slab registered twice: %v", err)
	}
}
