// In-process front door: a capture segmented by client.CaptureSession,
// registered with Server.Register and retrieved with Server.Query — the
// path the replay and the examples take. Lives in the external test
// package for the client.
package server_test

import (
	"sync"
	"testing"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/trace"
	"fovr/internal/wire"
)

var inProcessCamera = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

func inProcessServer(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{Camera: inProcessCamera, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// capture segments samples for provider into one upload.
func capture(t *testing.T, provider string, samples []fov.Sample) wire.Upload {
	t.Helper()
	sess, err := client.NewCaptureSession(provider, segment.Config{Camera: inProcessCamera, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushAll(samples); err != nil {
		t.Fatal(err)
	}
	return sess.Stop()
}

func TestCaptureRegisterQueryEndToEnd(t *testing.T) {
	s := inProcessServer(t)
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Register(capture(t, "walker", samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || s.Index().Len() != len(ids) {
		t.Fatalf("ids %v, len %d", ids, s.Index().Len())
	}

	target := geo.Offset(trace.ScenarioOrigin, 0, 80)
	hits, err := s.Query(query.Query{
		StartMillis: 0, EndMillis: 60_000, Center: target, RadiusMeters: 10,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for a filmed location")
	}
	if hits[0].Entry.Provider != "walker" {
		t.Fatalf("hit %+v", hits[0])
	}

	// A window after the capture matches nothing.
	hits, err = s.Query(query.Query{
		StartMillis: 9_000_000, EndMillis: 9_100_000, Center: target, RadiusMeters: 10,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("time filter failed: %d hits", len(hits))
	}
}

// Eight captures registered at once get disjoint ids, and the tree they
// built together is sound.
func TestConcurrentRegisterUniqueIDs(t *testing.T) {
	s := inProcessServer(t)
	const workers = 8
	idsOf := make([][]uint64, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cfg := trace.DefaultConfig
		cfg.StartMillis = int64(w) * 100_000
		samples, err := trace.Rotation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		u := capture(t, "p", samples)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids, err := s.Register(u)
			if err != nil {
				errs <- err
				return
			}
			idsOf[w] = ids
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, ids := range idsOf {
		if len(ids) == 0 {
			t.Fatal("a capture registered no segment")
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	if s.Index().Len() != len(seen) {
		t.Fatalf("index holds %d entries, %d ids handed out", s.Index().Len(), len(seen))
	}
}

// The capture side refuses a sample off the globe, and an empty capture
// registers nothing without error. (An empty provider is refused by
// TestRegisterEmptyProvider and the client's own validation test.)
func TestCaptureValidation(t *testing.T) {
	s := inProcessServer(t)
	sess, err := client.NewCaptureSession("p", segment.Config{Camera: inProcessCamera, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushAll([]fov.Sample{{UnixMillis: 0, P: geo.Point{Lat: 95, Lng: 0}}}); err == nil {
		t.Fatal("invalid sample accepted")
	}
	ids, err := s.Register(capture(t, "p", nil))
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty capture: ids=%v err=%v", ids, err)
	}
	if s.Index().Len() != 0 {
		t.Fatalf("index holds %d entries after an empty capture", s.Index().Len())
	}
}

// Each side of the in-process path refuses a bad setting: the server an
// invalid camera, the capture session a threshold outside (0, 1]. With
// the defaults, the session declares fov.DefaultCamera and a zero-config
// server takes the capture.
func TestInProcessConfigValidation(t *testing.T) {
	if _, err := server.New(server.Config{Camera: fov.Camera{HalfAngleDeg: 200, RadiusMeters: 1}}); err == nil {
		t.Fatal("invalid camera accepted")
	}
	if _, err := client.NewCaptureSession("p", segment.Config{Camera: inProcessCamera, Threshold: 2}); err == nil {
		t.Fatal("invalid threshold accepted")
	}
	s, err := server.New(server.Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewCaptureSession("p", segment.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushAll(samples); err != nil {
		t.Fatal(err)
	}
	u := sess.Stop()
	if u.Camera != fov.DefaultCamera {
		t.Fatalf("upload declares camera %+v, want the default", u.Camera)
	}
	ids, err := s.Register(u)
	if err != nil || len(ids) == 0 {
		t.Fatalf("default capture: ids=%v err=%v", ids, err)
	}
}

// A capture with one invalid representative registers none of its
// segments, and what an earlier capture registered is left as it was.
func TestCaptureRegisterRollbackOnInvalidRep(t *testing.T) {
	s := inProcessServer(t)
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Register(capture(t, "walker", samples))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Index().Len()
	if before != len(ids) || before == 0 {
		t.Fatalf("ids %v, len %d", ids, before)
	}

	bad := capture(t, "spoiler", samples)
	bad.Reps = append(bad.Reps, segment.Representative{FoV: fov.FoV{P: geo.Point{Lat: 99, Lng: 0}}})
	if _, err := s.Register(bad); err == nil {
		t.Fatal("invalid rep accepted")
	}
	if got := s.Index().Len(); got != before {
		t.Fatalf("rollback failed: %d entries, want %d", got, before)
	}
	if err := s.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	hits, err := s.Query(query.Query{
		StartMillis: 0, EndMillis: 60_000, Center: geo.Offset(trace.ScenarioOrigin, 0, 80), RadiusMeters: 10,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("the earlier capture is no longer found")
	}
	for _, h := range hits {
		if h.Entry.Provider != "walker" {
			t.Fatalf("hit from a rolled-back capture: %+v", h)
		}
	}
}
