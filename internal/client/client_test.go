package client

import (
	"net/http/httptest"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/trace"
	"fovr/internal/video"
	"fovr/internal/wire"
)

var cam = fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}

func segConfig() segment.Config {
	return segment.Config{Camera: cam, Threshold: 0.5}
}

func newBackend(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{Camera: cam})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCaptureSessionSegmentsLikeBatch(t *testing.T) {
	samples, err := trace.Rotation(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewCaptureSession("alice", segConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushAll(samples); err != nil {
		t.Fatal(err)
	}
	if sess.Frames() != len(samples) {
		t.Fatalf("Frames = %d, want %d", sess.Frames(), len(samples))
	}
	upload := sess.Stop()
	if upload.Provider != "alice" {
		t.Fatalf("provider %q", upload.Provider)
	}
	// Must agree with the offline batch segmentation.
	batch, err := segment.Split(segConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(upload.Reps) != len(batch) {
		t.Fatalf("streaming produced %d reps, batch %d", len(upload.Reps), len(batch))
	}
	for i := range batch {
		if upload.Reps[i] != batch[i].Representative {
			t.Fatalf("rep %d differs between streaming and batch", i)
		}
	}
}

func TestCaptureSessionValidation(t *testing.T) {
	if _, err := NewCaptureSession("", segConfig()); err == nil {
		t.Fatal("empty provider accepted")
	}
	bad := segConfig()
	bad.Threshold = 0
	if _, err := NewCaptureSession("p", bad); err == nil {
		t.Fatal("invalid segment config accepted")
	}
	sess, _ := NewCaptureSession("p", segConfig())
	err := sess.Push(fov.Sample{UnixMillis: -1, P: geo.Point{Lat: 40, Lng: 116}})
	if err == nil {
		t.Fatal("invalid sample accepted")
	}
}

func TestEndToEndCaptureUploadQuery(t *testing.T) {
	backend, ts := newBackend(t)
	c := New(ts.URL)

	// Provider walks north filming ahead; the whole street gets covered.
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewCaptureSession("walker", segConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.PushAll(samples); err != nil {
		t.Fatal(err)
	}
	upload := sess.Stop()
	if len(upload.Reps) == 0 {
		t.Fatal("walk produced no segments")
	}
	ids, err := c.Upload(upload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(upload.Reps) {
		t.Fatalf("got %d ids for %d reps", len(ids), len(upload.Reps))
	}
	if backend.Index().Len() != len(ids) {
		t.Fatal("server did not index the upload")
	}

	// An inquirer asks for a spot 80 m up the street during capture. The
	// first segment's representative sits near 50 m facing north, so the
	// target is squarely inside its viewable sector. (A target *behind*
	// the representative — e.g. 30 m — is correctly rejected by the
	// orientation filter: segment abstraction trades that recall for a
	// 20-byte descriptor.)
	target := geo.Offset(trace.ScenarioOrigin, 0, 80)
	results, elapsed, err := c.Query(query.Query{
		StartMillis:  0,
		EndMillis:    60_000,
		Center:       target,
		RadiusMeters: 10,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results for a point the walker filmed")
	}
	if elapsed < 0 {
		t.Fatal("negative elapsed")
	}
	for _, r := range results {
		if r.Entry.Provider != "walker" {
			t.Fatalf("unexpected provider %q", r.Entry.Provider)
		}
	}

	// Traffic accounting: the whole exchange is a few hundred bytes —
	// the paper's "negligible networking traffic".
	sent := c.Traffic.Sent()
	if sent <= 0 || sent > 4096 {
		t.Fatalf("client sent %d bytes; expected a few hundred", sent)
	}
	raw := wire.RawVideoBytes(video.R480, 30, 60, 0.1)
	if sent*1000 > raw {
		t.Fatalf("descriptor traffic %d B not negligible vs %d B of video", sent, raw)
	}

	// Stats endpoint round-trips.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != len(ids) || st.Providers["walker"] != len(ids) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueryAgainstEmptyServer(t *testing.T) {
	_, ts := newBackend(t)
	c := New(ts.URL)
	results, _, err := c.Query(query.Query{
		EndMillis: 1000, Center: geo.Point{Lat: 40, Lng: 116.3}, RadiusMeters: 20,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty server returned %d results", len(results))
	}
}

func TestClientErrorSurfacing(t *testing.T) {
	_, ts := newBackend(t)
	c := New(ts.URL)
	// Invalid query (inverted interval) must produce a client-side error
	// carrying the server's message.
	_, _, err := c.Query(query.Query{StartMillis: 5, EndMillis: 1, Center: geo.Point{Lat: 40, Lng: 116.3}}, 0)
	if err == nil {
		t.Fatal("server-side validation error not surfaced")
	}
	// Unreachable server.
	dead := New("http://127.0.0.1:1")
	if _, err := dead.Upload(wire.Upload{Provider: "p"}); err == nil {
		t.Fatal("unreachable server not surfaced")
	}
}

func TestForgetOverHTTP(t *testing.T) {
	backend, ts := newBackend(t)
	c := New(ts.URL)
	samples, _ := trace.Rotation(trace.DefaultConfig)
	sess, _ := NewCaptureSession("ghost", segConfig())
	if err := sess.PushAll(samples); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Upload(sess.Stop())
	if err != nil {
		t.Fatal(err)
	}
	removed, err := c.Forget("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(ids) {
		t.Fatalf("removed %d, want %d", removed, len(ids))
	}
	if backend.Index().Len() != 0 {
		t.Fatalf("%d segments remain", backend.Index().Len())
	}
}

// Forget escapes the provider: names holding a space, '&', '+' or '#'
// each delete their own segments and nobody else's.
func TestForgetEscapesProvider(t *testing.T) {
	_, ts := newBackend(t)
	c := New(ts.URL)
	samples, _ := trace.Rotation(trace.DefaultConfig)
	providers := []string{"a b", "a&b", "a+b", "a#b", "a"}
	per := 0
	for _, p := range providers {
		sess, err := NewCaptureSession(p, segConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.PushAll(samples); err != nil {
			t.Fatal(err)
		}
		ids, err := c.Upload(sess.Stop())
		if err != nil {
			t.Fatal(err)
		}
		per = len(ids)
	}
	for i, p := range providers {
		removed, err := c.Forget(p)
		if err != nil {
			t.Fatal(err)
		}
		if removed != per {
			t.Fatalf("Forget(%q) removed %d, want %d", p, removed, per)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Providers[p]; ok {
			t.Fatalf("Forget(%q) left its segments: %v", p, st.Providers)
		}
		for _, q := range providers[i+1:] {
			if st.Providers[q] != per {
				t.Fatalf("Forget(%q) touched %q: %v", p, q, st.Providers)
			}
		}
	}
}
