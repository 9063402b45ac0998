package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/segment"
	"fovr/internal/wire"
)

func retryUpload() wire.Upload {
	return wire.Upload{
		Provider: "alice",
		Camera:   cam,
		Reps: []segment.Representative{{
			FoV:         fov.FoV{P: geo.Point{Lat: 40.0, Lng: 116.326}, Theta: 90},
			StartMillis: 0,
			EndMillis:   5000,
		}},
	}
}

// flakyFrontend proxies to the real backend but fails the first n
// requests with the given status — the overloaded-gateway scenario the
// retry policy exists for.
func flakyFrontend(t *testing.T, backend *httptest.Server, n int, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	target, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var attempts atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= int64(n) {
			http.Error(w, "try again", status)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	return front, &attempts
}

func TestUploadRetriesTransientFailures(t *testing.T) {
	srv, backend := newBackend(t)
	front, attempts := flakyFrontend(t, backend, 2, http.StatusServiceUnavailable)

	c := New(front.URL)
	c.MaxRetries = 3
	c.RetryDelay = time.Millisecond
	before := uploadRetries.Value()

	ids, err := c.Upload(retryUpload())
	if err != nil {
		t.Fatalf("upload after transient failures: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v, want one", ids)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if got := uploadRetries.Value() - before; got != 2 {
		t.Fatalf("retry counter advanced by %d, want 2", got)
	}
	if srv.Index().Len() != 1 {
		t.Fatalf("index has %d entries, want 1", srv.Index().Len())
	}
}

func TestUploadGivesUpAfterMaxRetries(t *testing.T) {
	_, backend := newBackend(t)
	front, attempts := flakyFrontend(t, backend, 100, http.StatusServiceUnavailable)

	c := New(front.URL)
	c.MaxRetries = 2
	c.RetryDelay = time.Millisecond
	if _, err := c.Upload(retryUpload()); err == nil {
		t.Fatal("upload succeeded against an always-failing frontend")
	}
	if got := attempts.Load(); got != 3 { // initial try + 2 retries
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestRetryCancelDuringBackoff cancels the context while Do sleeps out
// a 10 s backoff: Do must return promptly with both the cancellation and
// the failure that caused the backoff.
func TestRetryCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	unavailable := errors.New("503 Service Unavailable")
	attempted := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- RetryPolicy{MaxRetries: 3, Delay: 10 * time.Second}.Do(ctx, func() (bool, error) {
			attempted <- struct{}{}
			return true, unavailable
		})
	}()
	<-attempted
	time.Sleep(10 * time.Millisecond) // let Do enter its sleep
	cancel()
	canceled := time.Now()
	select {
	case err := <-done:
		if took := time.Since(canceled); took > 100*time.Millisecond {
			t.Fatalf("Do returned %v after the cancel, want ≤ 100 ms", took)
		}
		if !errors.Is(err, context.Canceled) || !errors.Is(err, unavailable) {
			t.Fatalf("err = %v, want context.Canceled joined with the last attempt's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do kept sleeping after its context was canceled")
	}
	select {
	case <-attempted:
		t.Fatal("Do attempted again after its context was canceled")
	default:
	}
}

// TestRetryBackoffJitter records the sleeps Do asks for: the n-th lies in
// [d/2, d] for d = Delay·2ⁿ, and the draws vary.
func TestRetryBackoffJitter(t *testing.T) {
	const base = 100 * time.Millisecond
	var firsts []time.Duration
	for run := 0; run < 20; run++ {
		var slept []time.Duration
		p := RetryPolicy{MaxRetries: 5, Delay: base, sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}}
		attempts := 0
		err := p.Do(context.Background(), func() (bool, error) {
			attempts++
			return true, errors.New("transient")
		})
		if err == nil || attempts != 6 || len(slept) != 5 {
			t.Fatalf("err %v after %d attempts and %d sleeps, want an error after 6 attempts and 5 sleeps", err, attempts, len(slept))
		}
		for i, d := range slept {
			bound := base << i
			if d < bound/2 || d > bound {
				t.Fatalf("sleep %d = %v, want within [%v, %v]", i, d, bound/2, bound)
			}
		}
		firsts = append(firsts, slept[0])
	}
	for _, d := range firsts[1:] {
		if d != firsts[0] {
			return
		}
	}
	t.Fatalf("20 first sleeps all drew %v: no jitter", firsts[0])
}

func TestUploadDoesNotRetryPermanentErrors(t *testing.T) {
	_, backend := newBackend(t)
	front, attempts := flakyFrontend(t, backend, 100, http.StatusBadRequest)

	c := New(front.URL)
	c.MaxRetries = 5
	c.RetryDelay = time.Millisecond
	before := uploadRetries.Value()
	if _, err := c.Upload(retryUpload()); err == nil {
		t.Fatal("upload succeeded against a rejecting frontend")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx must not be retried)", got)
	}
	if got := uploadRetries.Value() - before; got != 0 {
		t.Fatalf("retry counter advanced by %d on a permanent error", got)
	}
}
