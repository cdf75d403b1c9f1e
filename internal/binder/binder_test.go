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
	if _, err := c.Register("svc", echo); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
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

func TestDeadBinderAndDeathRecipient(t *testing.T) {
	c := NewContext()
	c.Register("svc", echo)
	h, _ := c.Lookup("svc")
	died := false
	if err := c.LinkToDeath("svc", func() { died = true }); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("svc"); err != nil {
		t.Fatal(err)
	}
	if !died {
		t.Fatal("death recipient did not fire")
	}
	if _, err := c.Transact(h, 0, nil); !errors.Is(err, ErrDeadBinder) {
		t.Fatalf("err = %v, want ErrDeadBinder", err)
	}
	// The name is free for re-registration.
	if _, err := c.Register("svc", echo); err != nil {
		t.Fatal(err)
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

func TestServicesSorted(t *testing.T) {
	c := NewContext()
	for _, n := range []string{"zygote", "activity", "package"} {
		c.Register(n, echo)
	}
	got := c.Services()
	want := []string{"activity", "package", "zygote"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("services = %v, want %v", got, want)
		}
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
// table reserved: the context, the registry map sized for 11 (four objects)
// and the node slab. Before the slab it was the context and its two maps,
// then one node per service and four map growths: 18 for the customized
// table's 11.
const registerAllocs = 6

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
