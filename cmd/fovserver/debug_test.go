package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fovr/internal/obs"
	"fovr/internal/server"
)

// contendMutex forces mutex contention: each round parks a waiter on a
// held mutex before unlocking, so the unlock is a contention event
// whatever GOMAXPROCS is.
func contendMutex(rounds int) {
	var mu sync.Mutex
	for i := 0; i < rounds; i++ {
		mu.Lock()
		ready := make(chan struct{})
		done := make(chan struct{})
		go func() {
			close(ready)
			mu.Lock()
			mu.Unlock()
			close(done)
		}()
		<-ready
		time.Sleep(time.Millisecond) // let the waiter park on the mutex
		mu.Unlock()
		<-done
	}
}

// blockOnChannel blocks one receive for well over the block profile's
// sampling rate, so the event is always recorded.
func blockOnChannel() {
	ch := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(ch)
	}()
	<-ch
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestDebugListenerServesContentionProfiles pins what replaced the
// server's own contention endpoint: the debug listener's setup turns the
// runtime mutex and block profilers on, and its pprof routes name the
// contended frames, cumulatively and over a window.
func TestDebugListenerServesContentionProfiles(t *testing.T) {
	enableContentionProfiles()
	defer func() {
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}()
	if got := runtime.SetMutexProfileFraction(-1); got != mutexProfileFraction {
		t.Fatalf("mutex profile fraction %d, want %d", got, mutexProfileFraction)
	}
	srv, err := server.New(server.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(debugMux(srv))
	defer ts.Close()

	// 100 contended unlocks sampled 1 in 5: missing all of them has
	// probability 0.8^100.
	contendMutex(100)
	blockOnChannel()

	code, body := getBody(t, ts.URL+"/debug/pprof/mutex?debug=1")
	if code != http.StatusOK {
		t.Fatalf("mutex profile: status %d", code)
	}
	if !strings.Contains(body, "cycles/second=") {
		t.Fatalf("mutex profile has no cycles/second header:\n%s", body)
	}
	if !strings.Contains(body, "fovserver.contendMutex") {
		t.Fatalf("mutex profile does not name the contended frame:\n%s", body)
	}
	code, body = getBody(t, ts.URL+"/debug/pprof/block?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "fovserver.blockOnChannel") {
		t.Fatalf("block profile (status %d) does not name the blocked frame:\n%s", code, body)
	}

	// The windowed delta: what the server's own endpoint once computed.
	if code, body := getBody(t, ts.URL+"/debug/pprof/mutex?seconds=1"); code != http.StatusOK {
		t.Fatalf("windowed mutex profile: status %d: %s", code, body)
	}
}
