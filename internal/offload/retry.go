package offload

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"time"

	"rattrap/internal/faults"
)

// ErrShardDown reports an operation against a cluster shard that crashed
// after the session was routed to it. It is retryable by design: the failure
// already advanced the membership epoch, so the caller's next Prepare routes
// to a surviving shard. The sentinel lives here, not in package cluster
// (which re-exports it), so the one retry predicate can name it.
var ErrShardDown = errors.New("cluster: shard down")

// RetryPolicy governs a client's retry loop, simulated or over TCP:
// exponential backoff with jitter, honoring the cloud's retry-after hint on
// overload rejections.
type RetryPolicy struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // backoff before the first retry (default 200ms)
	MaxDelay    time.Duration // backoff ceiling (default 5s)
}

// WithDefaults fills the zero fields.
func (rp RetryPolicy) WithDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 200 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = 5 * time.Second
	}
	return rp
}

// Retryable reports whether an offload failure is worth retrying: transport
// faults, injected in a simulation or real on a socket (the request may never
// have reached the cloud), overload rejections (the cloud asked us to come
// back) and a crashed shard (the next epoch's ring routes the AID to a
// surviving replica). Application errors and protocol violations are
// permanent.
func Retryable(err error) bool {
	if faults.IsTransient(err) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShardDown) {
		return true
	}
	var sock net.Error // declared here: errors.As moves it to the heap
	return errors.As(err, &sock) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Backoff decides what follows the attempt'th failed try (1-based): ok is
// false when cause is permanent or the attempt budget is spent, otherwise
// delay is BaseDelay doubled per attempt, capped at MaxDelay, with ±25%
// jitter to spread retry herds, floored by an overload rejection's
// retry-after hint. The jitter source is the caller's so a simulation stays
// deterministic per seed; it is drawn from only when ok.
func (rp RetryPolicy) Backoff(attempt int, cause error, rng *rand.Rand) (delay time.Duration, ok bool) {
	if attempt >= rp.MaxAttempts || !Retryable(cause) {
		return 0, false
	}
	delay = rp.BaseDelay << uint(attempt-1)
	if delay > rp.MaxDelay || delay <= 0 {
		delay = rp.MaxDelay
	}
	delay += time.Duration(float64(delay) * 0.25 * (2*rng.Float64() - 1))
	var over *OverloadedError
	if errors.As(cause, &over) && delay < over.RetryAfter {
		delay = over.RetryAfter
	}
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay, true
}
