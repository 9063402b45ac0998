package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"time"

	"fovr/internal/obs"
)

// RetryPolicy paces retriable operations with exponential backoff. It
// is the single retry implementation in the client package: the upload
// path, the replication fetcher and the cluster router's partition
// clients all construct one instead of hand-rolling loops, so every
// caller classifies and paces transient failures the same way.
type RetryPolicy struct {
	// MaxRetries bounds the number of retries after the first attempt;
	// zero means one attempt, no retries.
	MaxRetries int
	// Delay is the first backoff bound; it doubles per retry. Zero means
	// 50 ms. Each sleep is drawn uniformly from [bound/2, bound], so
	// clients that failed together do not retry together.
	Delay time.Duration
	// Retries, when non-nil, is incremented once per retry (not per
	// attempt), matching the fovr_client_*_retries_total metrics.
	Retries *obs.Counter

	// sleep waits out one backoff; nil means sleepCtx. Tests record
	// through it.
	sleep func(ctx context.Context, d time.Duration) error
}

// Do runs op until it succeeds, fails non-retriably, exhausts the
// retry budget, or ctx ends during a backoff sleep, sleeping with
// jittered exponential backoff between attempts. op reports whether its
// failure is worth retrying (connection errors, retriableStatus) alongside
// the error. When ctx ends first, Do returns ctx's error joined with
// op's last one.
func (p RetryPolicy) Do(ctx context.Context, op func() (retriable bool, err error)) error {
	delay := p.Delay
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	sleep := p.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	for attempt := 0; ; attempt++ {
		retriable, err := op()
		if err == nil {
			return nil
		}
		if !retriable || attempt >= p.MaxRetries {
			return err
		}
		if p.Retries != nil {
			p.Retries.Inc()
		}
		half := delay / 2
		if cerr := sleep(ctx, half+rand.N(delay-half+1)); cerr != nil {
			return errors.Join(cerr, err)
		}
		delay *= 2
	}
}

// retriableStatus reports whether an answer's HTTP status is worth
// another attempt: 502, 503 or 504 — a gateway, or a server that cannot
// serve the request now, may answer the next one.
func retriableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// sleepCtx waits d, or until ctx ends, whichever comes first, and
// returns ctx's error in the second case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
