// HTTP ingest/read race test: saturating writers and concurrent queriers
// against one server over real HTTP through internal/client. CI runs it
// under -race. Lives in the external test package for the client.
package server_test

import (
	"net/http/httptest"
	"sync"
	"testing"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

func TestHTTPIngestReadRace(t *testing.T) {
	srv, err := server.New(server.Config{
		Camera:   fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
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
				ids, err := c.Upload(up)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if len(ids) != reps {
					t.Errorf("writer %d upload %d: %d ids acknowledged, want %d", w, u, len(ids), reps)
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

	st, err := client.New(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != writers*uploads*reps {
		t.Errorf("/stats counts %d entries, want %d", st.Segments, writers*uploads*reps)
	}
	for w := 0; w < writers; w++ {
		if got := st.Providers[providerName(w)]; got != uploads*reps {
			t.Errorf("provider %s: %d entries, want %d", providerName(w), got, uploads*reps)
		}
	}
}

func providerName(w int) string {
	return string(rune('a'+w)) + "-provider"
}
