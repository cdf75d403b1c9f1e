package offload

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rattrap/internal/host"
)

func TestAIDStableAndDistinct(t *testing.T) {
	a1 := AID("ChessGame", 2300*host.KB)
	a2 := AID("ChessGame", 2300*host.KB)
	if a1 != a2 {
		t.Fatal("AID not stable")
	}
	if a1 == AID("Linpack", 152*host.KB) {
		t.Fatal("different apps share an AID")
	}
	if a1 == AID("ChessGame", 2301*host.KB) {
		t.Fatal("different code sizes share an AID")
	}
	if len(a1) != 16 {
		t.Fatalf("AID %q has unexpected length", a1)
	}
}

// refAID is AID as it was written first: Sprintf, SHA-1, hex.
func refAID(app string, codeSize host.Bytes) string {
	sum := sha1.Sum([]byte(fmt.Sprintf("%s:%d", app, codeSize)))
	return hex.EncodeToString(sum[:8])
}

// TestAIDMatchesSprintfForm: the stack-built key hashes to the same
// identity as the Sprintf form for any app name — long ones that outgrow
// the stack buffer, empty ones, non-ASCII ones — and any size, negative
// included; and it allocates only the string it returns.
func TestAIDMatchesSprintfForm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	apps := []string{"", "Linpack", "ChessGame", "Ünïcode-app", strings.Repeat("VeryLongAppName", 8)}
	for i := 0; i < 2000; i++ {
		app := apps[r.Intn(len(apps))]
		if r.Intn(3) == 0 {
			app += fmt.Sprint(r.Int63())
		}
		size := host.Bytes(r.Int63n(1<<40) - 1<<20)
		if got, want := AID(app, size), refAID(app, size); got != want {
			t.Fatalf("AID(%q, %d) = %s, Sprintf form %s", app, size, got, want)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { _ = AID("Linpack", 152*host.KB+4095) }); n > 1 {
		t.Fatalf("AID allocates %.1f times, want at most 1 (the returned string)", n)
	}
}

func TestPhasesResponse(t *testing.T) {
	p := Phases{
		NetworkConnection:    10 * time.Millisecond,
		DataTransfer:         20 * time.Millisecond,
		RuntimePreparation:   30 * time.Millisecond,
		ComputationExecution: 40 * time.Millisecond,
	}
	if p.Response() != 100*time.Millisecond {
		t.Fatalf("response = %v", p.Response())
	}
}

func TestTrafficAccumulate(t *testing.T) {
	var tr Traffic
	tr.Add(Traffic{CodeUp: 100, FileParamUp: 200, ControlUp: 10, Down: 5})
	tr.Add(Traffic{FileParamUp: 300, ControlUp: 10, Down: 5})
	if tr.Up() != 620 {
		t.Fatalf("up = %d, want 620", tr.Up())
	}
	if tr.Down != 10 {
		t.Fatalf("down = %d", tr.Down)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	frames := []Frame{
		{Kind: KindHello, Hello: &Hello{DeviceID: "phone-1"}},
		{Kind: KindExec, Exec: &ExecRequest{
			DeviceID: "phone-1", AID: "abc", App: "ChessGame", Method: "bestMove",
			Seq: 3, Params: []byte{1, 2, 3}, ParamBytes: 122 * host.KB,
		}},
		{Kind: KindNeedCode},
		{Kind: KindCode, Code: &CodePush{AID: "abc", App: "ChessGame", Size: 2300 * host.KB}},
		{Kind: KindResult, Result: &Result{Output: "bestmove=e2e4", ResultBytes: 7600}},
	}
	for _, f := range frames {
		if err := c.Send(f); err != nil {
			t.Fatalf("send %s: %v", f.Kind, err)
		}
	}
	for _, want := range frames {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Kind, err)
		}
		if got.Kind != want.Kind {
			t.Fatalf("kind = %s, want %s", got.Kind, want.Kind)
		}
		switch want.Kind {
		case KindExec:
			if got.Exec.App != want.Exec.App || got.Exec.Seq != want.Exec.Seq ||
				got.Exec.ParamBytes != want.Exec.ParamBytes || len(got.Exec.Params) != 3 {
				t.Fatalf("exec round trip: %+v", got.Exec)
			}
		case KindResult:
			if got.Result.Output != want.Result.Output {
				t.Fatalf("result round trip: %+v", got.Result)
			}
		}
	}
}

func TestCodecRejectsMalformedFrames(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(Frame{Kind: KindExec}); err == nil {
		t.Fatal("exec frame without payload accepted")
	}
	if err := c.Send(Frame{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
