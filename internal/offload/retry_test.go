package offload

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"rattrap/internal/faults"
)

// TestRetryable pins the one retry class every client loop shares.
func TestRetryable(t *testing.T) {
	for _, err := range []error{
		&faults.Error{Kind: faults.Drop, Site: faults.SiteUpload},
		&OverloadedError{RetryAfter: time.Second},
		fmt.Errorf("shard 1: %w", ErrShardDown),
		fmt.Errorf("recv: %w", io.EOF),
		io.ErrUnexpectedEOF,
		&net.OpError{Op: "dial", Err: errors.New("connection refused")},
	} {
		if !Retryable(err) {
			t.Errorf("%v must be retryable", err)
		}
	}
	for _, err := range []error{
		errors.New("device d: cloud error: bad params"),
		ErrCodeNeeded,
		ErrFrameTooLarge,
	} {
		if Retryable(err) {
			t.Errorf("%v must be permanent", err)
		}
	}
}

func TestBackoff(t *testing.T) {
	rp := RetryPolicy{}.WithDefaults()
	rng := rand.New(rand.NewSource(1))
	transient := &faults.Error{Kind: faults.Drop}
	for attempt := 1; attempt < rp.MaxAttempts; attempt++ {
		nominal := rp.BaseDelay << uint(attempt-1)
		d, ok := rp.Backoff(attempt, transient, rng)
		if !ok || d < nominal*3/4 || d > nominal*5/4 {
			t.Errorf("attempt %d: delay %v, ok %v; want within 25%% of %v", attempt, d, ok, nominal)
		}
	}
	if _, ok := rp.Backoff(rp.MaxAttempts, transient, rng); ok {
		t.Error("retry granted past MaxAttempts")
	}
	if _, ok := rp.Backoff(1, errors.New("permanent"), rng); ok {
		t.Error("retry granted for a permanent error")
	}
	// The cloud's retry-after hint is a floor; maxBackoff is a ceiling.
	if d, _ := rp.Backoff(1, &OverloadedError{RetryAfter: 3 * time.Second}, rng); d != 3*time.Second {
		t.Errorf("delay %v ignores the 3s retry-after hint", d)
	}
	long := RetryPolicy{MaxAttempts: 64, BaseDelay: time.Second}
	if d, _ := long.Backoff(40, transient, rng); d > maxBackoff*5/4 {
		t.Errorf("delay %v exceeds the jittered ceiling", d)
	}
}

// TestPipelineClientSurfacesProtocolError: the server's farewell for a
// protocol violation is a CodeProtocol result that answers no request; the
// client must report what it says, not "result for unknown seq 0".
func TestPipelineClientSurfacesProtocolError(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		sc := NewConn(server)
		for i := 0; i < 2; i++ { // hello, exec
			if _, err := sc.Recv(); err != nil {
				return
			}
		}
		_ = sc.Send(Frame{Kind: KindResult, Result: &Result{Err: "exec for AID x does not match", Code: CodeProtocol}})
	}()
	pc := NewPipelineClient(NewConn(client), 1, nil, func(Result) { t.Error("farewell delivered as a request's result") })
	if err := pc.Hello("dev"); err != nil {
		t.Fatal(err)
	}
	if err := pc.Submit(ExecRequest{DeviceID: "dev", AID: "a", Seq: 0}); err != nil {
		t.Fatal(err)
	}
	err := pc.Flush()
	if err == nil || !strings.Contains(err.Error(), "exec for AID x does not match") {
		t.Fatalf("Flush error = %v, want the server's message", err)
	}
	if Retryable(err) {
		t.Error("a protocol violation must not be retried")
	}
}
