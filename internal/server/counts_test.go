package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/segment"
	"fovr/internal/store"
	"fovr/internal/wire"
)

// statsOf answers GET /stats through s's handler.
func statsOf(t *testing.T, s *Server) Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats: %v (%q)", err, rec.Body.String())
	}
	return st
}

// An upload with no representatives, in process or over HTTP, changes
// nothing: it answers no ids, journals nothing, leaves no provider on
// /stats and does not move the id sequence.
func TestEmptyUploadChangesNothing(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	defer d.Close()
	s := durableServer(t, d)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	uploadN(t, s, "real", 2)
	walSize := func() int64 {
		fi, err := os.Stat(walFile(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := walSize()

	if ids, err := s.Register(wire.Upload{Provider: "ghost"}); err != nil || len(ids) != 0 {
		t.Fatalf("in-process empty upload: ids %v, err %v", ids, err)
	}
	body, err := wire.EncodeBinary(wire.Upload{Provider: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UploadResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || ur.IDs == nil || len(ur.IDs) != 0 {
		t.Fatalf("HTTP empty upload: status %d, ids %v, err %v", resp.StatusCode, ur.IDs, err)
	}

	if after := walSize(); after != before {
		t.Fatalf("empty uploads grew the WAL %d -> %d bytes", before, after)
	}
	if st := statsOf(t, s); !maps.Equal(st.Providers, map[string]int{"real": 2}) {
		t.Fatalf("after empty uploads /stats providers = %v, want only real: 2", st.Providers)
	}
	ids, err := s.Register(wire.Upload{Provider: "real", Reps: []segment.Representative{rep(center, 0, 0, 1000)}})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 3 {
		t.Fatalf("the upload after the empty ones got id %d, want 3", ids[0])
	}
}

// switchRefuse journals like its Mem until refuse is set, and then
// refuses removals like removeRefused.
type switchRefuse struct {
	removeRefused
	refuse bool
}

func (s *switchRefuse) AppendRemove(ids []uint64) error {
	if s.refuse {
		return s.removeRefused.AppendRemove(ids)
	}
	return s.Mem.AppendRemove(ids)
}

// /stats provider counts are the index's: after every step of a seeded
// random schedule of uploads, empty uploads, rolled-back uploads,
// forgets, forgets the journal refuses and bootstraps, /stats providers
// equal a recount of a model of what is indexed, and sum to segments.
func TestProviderCountsUnderSchedule(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runCountSchedule(t, seed, 150) })
	}
}

func runCountSchedule(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	st := &switchRefuse{removeRefused: removeRefused{store.NewMem()}}
	s, err := New(Config{Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}, Registry: obs.NewRegistry(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	providers := []string{"ann", "bo", "cy", "di"}
	cameras := []fov.Camera{{}, {HalfAngleDeg: 30, RadiusMeters: 100}, {HalfAngleDeg: 45, RadiusMeters: 150}}
	model := map[uint64]index.Entry{} // what the index holds, by id
	randRep := func() segment.Representative {
		start := rng.Int63n(1 << 30)
		end := start + 1 + rng.Int63n(60_000)
		if rng.Intn(8) == 0 { // over-long: a row of its own per distinct end
			end = start + 1<<32 + rng.Int63n(4)
		}
		return rep(geo.Offset(center, rng.Float64()*360, rng.Float64()*500), rng.Float64()*360, start, end)
	}
	randUpload := func() wire.Upload {
		u := wire.Upload{Provider: providers[rng.Intn(len(providers))], Camera: cameras[rng.Intn(len(cameras))]}
		for range 1 + rng.Intn(4) {
			u.Reps = append(u.Reps, randRep())
		}
		return u
	}
	var op string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, after %s: %s (replay: go test -run 'TestProviderCountsUnderSchedule/seed=%d' ./internal/server)",
			seed, op, fmt.Sprintf(format, args...), seed)
	}
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(10); {
		case k < 4:
			u := randUpload()
			op = fmt.Sprintf("step %d: upload %s x%d", step, u.Provider, len(u.Reps))
			ids, err := s.Register(u)
			if err != nil {
				fail("%v", err)
			}
			for i, id := range ids {
				model[id] = index.Entry{ID: id, Provider: u.Provider, Rep: u.Reps[i], Camera: u.Camera}
			}
		case k == 4:
			op = fmt.Sprintf("step %d: empty upload", step)
			if ids, err := s.Register(wire.Upload{Provider: providers[rng.Intn(len(providers))]}); err != nil || len(ids) != 0 {
				fail("ids %v, err %v", ids, err)
			}
		case k == 5:
			u := randUpload()
			u.Reps = append(u.Reps, rep(center, 0, 5000, 1000)) // inverted interval: InsertBatch fails
			op = fmt.Sprintf("step %d: rolled-back upload %s x%d", step, u.Provider, len(u.Reps))
			if _, err := s.Register(u); err == nil {
				fail("an inverted interval was accepted")
			}
		case k < 8:
			p := providers[rng.Intn(len(providers))]
			st.refuse = k == 7
			op = fmt.Sprintf("step %d: forget %s (journal refuses: %v)", step, p, st.refuse)
			removed, err := s.ForgetProvider(p)
			st.refuse = false
			held := 0
			for _, e := range model {
				if e.Provider == p {
					held++
				}
			}
			switch {
			case k == 7 && held > 0:
				if err == nil || removed != 0 {
					fail("removed %d, err %v: a refused journal must remove nothing", removed, err)
				}
			case err != nil || removed != held:
				fail("removed %d, err %v, want %d removed", removed, err, held)
			default:
				maps.DeleteFunc(model, func(_ uint64, e index.Entry) bool { return e.Provider == p })
			}
		case k == 8:
			// Bootstrap to a random part of the state plus a new
			// provider's entries past every id the server handed out.
			// The draws follow id order, so a seed replays.
			ids := make([]uint64, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			state := []index.Entry{}
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					state = append(state, model[id])
				}
			}
			next := uint64(1)
			if len(ids) > 0 {
				next = ids[len(ids)-1] + 1
			}
			for i := range rng.Intn(3) {
				state = append(state, index.Entry{ID: next + 100 + uint64(i), Provider: "boot", Rep: randRep()})
			}
			op = fmt.Sprintf("step %d: bootstrap to %d entries", step, len(state))
			if err := bootstrapState(s, state); err != nil {
				fail("%v", err)
			}
			model = map[uint64]index.Entry{}
			for _, e := range state {
				model[e.ID] = e
			}
		default:
			op = fmt.Sprintf("step %d: invariants", step)
			if err := s.Index().CheckInvariants(); err != nil {
				fail("%v", err)
			}
		}
		want := map[string]int{}
		for _, e := range model {
			want[e.Provider]++
		}
		got := statsOf(t, s)
		sum := 0
		for _, n := range got.Providers {
			sum += n
		}
		if !maps.Equal(got.Providers, want) || sum != got.Segments || got.Segments != len(model) {
			fail("/stats: %d segments, providers %v (sum %d); the model holds %d: %v", got.Segments, got.Providers, sum, len(model), want)
		}
	}
}
