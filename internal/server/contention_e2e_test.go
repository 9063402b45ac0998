// Contention-observatory end-to-end test: a saturating writer plus
// concurrent queriers against a server with lock sampling and
// the runtime contention profilers on, asserting /debug/contention
// reports per-class wait/hold samples and /debug/hotspots reports
// non-empty sketches — CI runs this as its contention smoke step. Lives
// in the external test package because it drives real HTTP through
// internal/client.
package server_test

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

func TestContentionObservatoryE2E(t *testing.T) {
	obs.SetLockSampleRate(4)
	obs.EnableProfiling(1, 10_000)
	defer func() {
		obs.SetLockSampleRate(0)
		obs.DisableProfiling()
	}()

	srv, err := server.New(server.Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Registry: obs.NewRegistry(),
		HotspotK: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Saturating writers: every upload serializes on the one tree lock.
	const writers, uploads, reps = 4, 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(ts.URL)
			for u := 0; u < uploads; u++ {
				up := wire.Upload{Provider: providerName(w), Reps: make([]segment.Representative, reps)}
				for i := range up.Reps {
					start := int64(i%60) * 1000 // one hour window
					up.Reps[i] = segment.Representative{
						FoV:         fov.FoV{P: geo.Offset(opsCenter, float64((w*100+u*10+i)%360), float64(5+i)), Theta: float64(i % 360)},
						StartMillis: start,
						EndMillis:   start + 5000,
					}
				}
				if _, err := c.Upload(up); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Concurrent queriers over the same window and area.
	q := query.Query{Center: opsCenter, RadiusMeters: 200, StartMillis: 0, EndMillis: 70_000}
	for qd := 0; qd < 2; qd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(ts.URL)
			for i := 0; i < 30; i++ {
				if _, _, err := c.Query(q, 10); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	c := client.New(ts.URL)

	// /debug/contention: lock classes present with sampled acquisitions.
	cont, err := c.Contention(10)
	if err != nil {
		t.Fatal(err)
	}
	if cont.LockSampleRate != 4 {
		t.Errorf("lockSampleRate = %d, want 4", cont.LockSampleRate)
	}
	if !cont.ProfileEnabled {
		t.Error("profileEnabled = false with profilers on")
	}
	classes := map[string]server.LockClassStats{}
	for _, lc := range cont.Locks {
		classes[lc.Class] = lc
	}
	for _, want := range []string{"index.tree"} {
		lc, ok := classes[want]
		if !ok {
			t.Errorf("lock class %q missing from /debug/contention (have %v)", want, cont.Locks)
			continue
		}
		if lc.Acquisitions == 0 || lc.Sampled == 0 {
			t.Errorf("lock class %q: acquisitions=%d sampled=%d, want both > 0", want, lc.Acquisitions, lc.Sampled)
		}
		if lc.WaitP99Ns <= 0 || lc.HoldP99Ns <= 0 {
			t.Errorf("lock class %q: waitP99=%.0f holdP99=%.0f ns, want both > 0", want, lc.WaitP99Ns, lc.HoldP99Ns)
		}
	}

	// A second snapshot after more load covers the windowed delta path.
	time.Sleep(10 * time.Millisecond)
	cont2, err := c.Contention(10)
	if err != nil {
		t.Fatal(err)
	}
	if cont2.WindowSeconds <= 0 {
		t.Errorf("second contention window = %v s, want > 0", cont2.WindowSeconds)
	}

	// /debug/hotspots: all three sketches fed and non-empty.
	hs, err := c.Hotspots(5)
	if err != nil {
		t.Fatal(err)
	}
	if !hs.Enabled {
		t.Fatal("hotspots disabled on a server configured with HotspotK")
	}
	bySketch := map[string]server.HotspotSketch{}
	for _, sk := range hs.Sketches {
		bySketch[sk.Name] = sk
	}
	for _, name := range []string{"query_cells", "providers", "shard_windows"} {
		sk, ok := bySketch[name]
		if !ok {
			t.Errorf("sketch %q missing", name)
			continue
		}
		if len(sk.Entries) == 0 || sk.Total == 0 {
			t.Errorf("sketch %q empty: %+v", name, sk)
			continue
		}
		if sk.Entries[0].SharePct <= 0 {
			t.Errorf("sketch %q top share = %v, want > 0", name, sk.Entries[0].SharePct)
		}
	}
	if got := bySketch["providers"].Total; got != writers*uploads*reps {
		t.Errorf("providers sketch total = %d, want %d", got, writers*uploads*reps)
	}
	// All queries hit one grid cell; the top cell must dominate.
	if top := bySketch["query_cells"].Entries[0]; top.SharePct < 99 {
		t.Errorf("query cell top share = %.1f%%, want ~100%%", top.SharePct)
	}
}

func providerName(w int) string {
	return string(rune('a'+w)) + "-provider"
}
