package resilience

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

var (
	cRetries = obs.C("resilience.retries")
)

// Backoff is an exponential backoff policy with deterministic jitter.
// The zero value means "one attempt, no retries".
type Backoff struct {
	// Attempts is the total number of attempts (first try included);
	// values below 1 are treated as 1.
	Attempts int
	// Base is the delay before the first retry; doubled each retry.
	// Defaults to 10ms when retries are configured.
	Base time.Duration
	// Cap bounds the (pre-jitter) delay. Defaults to 2s.
	Cap time.Duration
	// Jitter in [0, 1) subtracts up to that fraction of the delay, drawn
	// from a stream seeded by Seed — deterministic across runs.
	Jitter float64
	// Seed seeds the jitter stream.
	Seed uint64
}

// delay returns the backoff before retry number retry (1-based), drawing
// jitter from s (which may be nil when Jitter is 0).
func (b Backoff) delay(retry int, s *rng.Stream) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := b.Cap
	if cap <= 0 {
		cap = 2 * time.Second
	}
	d := base
	for i := 1; i < retry && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if b.Jitter > 0 {
		d -= time.Duration(float64(d) * b.Jitter * s.Float64())
	}
	return d
}

// Retry runs fn up to b.Attempts times, sleeping the backoff between
// attempts. Only transient errors (IsTransient) are retried: a success,
// a permanent error, or exhausted attempts end the loop with fn's last
// result. Sleeps honour ctx; a context that terminates while waiting
// returns the classified context error instead of retrying.
func Retry(ctx context.Context, b Backoff, fn func() error) error {
	attempts := b.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var stream *rng.Stream
	if b.Jitter > 0 {
		stream = rng.New(b.Seed)
	}
	var err error
	for i := 1; ; i++ {
		err = fn()
		if err == nil || !IsTransient(err) || i >= attempts {
			return err
		}
		cRetries.Inc()
		if serr := sleepCtx(ctx, b.delay(i, stream)); serr != nil {
			return serr
		}
	}
}
