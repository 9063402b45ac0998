package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/segment"
	"fovr/internal/store"
)

func entry(id uint64, provider string) index.Entry {
	return index.Entry{
		ID:       id,
		Provider: provider,
		Rep: segment.Representative{
			FoV: fov.FoV{
				P:     geo.Point{Lat: 40.0 + float64(id)*1e-5, Lng: 116.326},
				Theta: float64(id*37%360) + 0.25,
			},
			StartMillis: int64(id) * 1000,
			EndMillis:   int64(id)*1000 + 5000,
		},
		Camera: fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100},
	}
}

// frames encodes records in the store's WAL frame format, the same
// bytes a leader would ship.
func frames(t *testing.T, recs ...store.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := store.AppendWALRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// scriptFetcher serves a fixed sequence of responses, then idles with
// empty caught-up batches. Each step sees the cursor the follower asked
// with, so a test can assert the resume positions. A bootstrap asks
// with the zero cursor: its step is taken by the manifest leg (an empty
// manifest, nothing sealed) and answers the memtable leg.
type scriptFetcher struct {
	mu    sync.Mutex
	steps []func(cur Cursor) (*Batch, error)
	asked []Cursor
	idle  Batch  // returned once the script is exhausted
	mem   *Batch // the current bootstrap's memtable answer
}

func (s *scriptFetcher) Fetch(ctx context.Context, cur Cursor, wait time.Duration) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.asked = append(s.asked, cur)
	if len(s.steps) == 0 {
		// Simulate a long poll expiring so the loop does not spin.
		time.Sleep(5 * time.Millisecond)
		idle := s.idle
		return &idle, nil
	}
	step := s.steps[0]
	s.steps = s.steps[1:]
	return step(cur)
}

func (s *scriptFetcher) FetchManifest(ctx context.Context) (*ManifestBatch, error) {
	b, err := s.Fetch(ctx, Cursor{}, 0)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mem = b
	s.mu.Unlock()
	return &ManifestBatch{StoreID: b.StoreID, Lead: b.Lead}, nil
}

func (s *scriptFetcher) FetchSegment(context.Context, store.SegmentMeta) ([]byte, error) {
	return nil, errors.New("no segments scripted")
}

func (s *scriptFetcher) FetchMem(context.Context) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem, nil
}

func (s *scriptFetcher) cursors() []Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Cursor(nil), s.asked...)
}

// memApplier folds batches into a map, mirroring what the server's
// apply path does to its index.
type memApplier struct {
	mu      sync.Mutex
	state   map[uint64]index.Entry
	resets  int
	traces  []string // propagated trace ids seen by Apply* calls
	failOne error    // next Apply* call fails with this once
}

func newMemApplier() *memApplier { return &memApplier{state: map[uint64]index.Entry{}} }

func (m *memApplier) takeFailure() error {
	err := m.failOne
	m.failOne = nil
	return err
}

func (m *memApplier) ApplyRegister(entries []index.Entry, trace string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.takeFailure(); err != nil {
		return err
	}
	if trace != "" {
		m.traces = append(m.traces, trace)
	}
	for _, e := range entries {
		m.state[e.ID] = e
	}
	return nil
}

func (m *memApplier) ApplyRemove(ids []uint64, trace string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.takeFailure(); err != nil {
		return err
	}
	if trace != "" {
		m.traces = append(m.traces, trace)
	}
	for _, id := range ids {
		delete(m.state, id)
	}
	return nil
}

func (m *memApplier) HasSegment(int64, uint64, uint32) bool { return false }

func (m *memApplier) InstallSegment(store.SegmentMeta, []byte) error {
	return errors.New("no segments scripted")
}

func (m *memApplier) FinishBootstrap(_ store.ManifestSnapshot, mem []index.Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.takeFailure(); err != nil {
		return err
	}
	m.resets++
	m.state = make(map[uint64]index.Entry, len(mem))
	for _, e := range mem {
		m.state[e.ID] = e
	}
	return nil
}

func (m *memApplier) ids() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.state))
	for id := range m.state {
		out = append(out, id)
	}
	return out
}

func startFollower(t *testing.T, fetch Fetcher, apply Applier) *Follower {
	t.Helper()
	f, err := Start(Options{
		Fetch:    fetch,
		Apply:    apply,
		Poll:     10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func waitCaughtUp(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("WaitCaughtUp: %v (status %+v)", err, f.Status())
	}
}

func TestFollowerBootstrapsThenTails(t *testing.T) {
	wal := frames(t,
		store.Record{Op: store.OpRegister, Entries: []index.Entry{entry(3, "bob")}},
		store.Record{Op: store.OpRemove, IDs: []uint64{1}},
	)
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			func(cur Cursor) (*Batch, error) {
				if !cur.IsZero() {
					return nil, fmt.Errorf("first fetch with cursor %v, want zero (bootstrap)", cur)
				}
				// The leader's log already holds the tail, so the follower
				// is not caught up until it has applied the next step.
				return &Batch{
					Entries: []index.Entry{entry(1, "alice"), entry(2, "alice")},
					Next:    Cursor{Gen: 1, Off: 100},
					Lead:    Cursor{Gen: 1, Off: 100 + int64(len(wal))},
					StoreID: "leader-1",
				}, nil
			},
			func(cur Cursor) (*Batch, error) {
				if cur != (Cursor{Gen: 1, Off: 100}) {
					return nil, fmt.Errorf("tail fetch with cursor %v, want 1/100", cur)
				}
				return &Batch{
					Frames:  wal,
					Next:    Cursor{Gen: 1, Off: 100 + int64(len(wal))},
					Lead:    Cursor{Gen: 1, Off: 100 + int64(len(wal))},
					StoreID: "leader-1",
				}, nil
			},
		},
	}
	sf.idle = Batch{
		Next: Cursor{Gen: 1, Off: 100 + int64(len(wal))},
		Lead: Cursor{Gen: 1, Off: 100 + int64(len(wal))}, StoreID: "leader-1"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)

	ids := ap.ids()
	if len(ids) != 2 {
		t.Fatalf("follower state ids = %v, want {2, 3}", ids)
	}
	st := f.Status()
	if st.State != "streaming" || st.Bootstraps != 1 || st.AppliedRecords != 2 {
		t.Errorf("status = %+v", st)
	}
	if st.LeaderStoreID != "leader-1" || st.LagBytes != 0 {
		t.Errorf("status = %+v", st)
	}
}

func TestFollowerRebootstrapsOnStoreIDChange(t *testing.T) {
	snap := func(id string, e index.Entry, lead int64) func(Cursor) (*Batch, error) {
		return func(Cursor) (*Batch, error) {
			return &Batch{Entries: []index.Entry{e},
				Next: Cursor{Gen: 1, Off: 10}, Lead: Cursor{Gen: 1, Off: lead}, StoreID: id}, nil
		}
	}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			// The old leader is ahead of its snapshot: only the second
			// bootstrap leaves the follower caught up.
			snap("leader-old", entry(1, "alice"), 20),
			// The leader's directory was wiped: same cursor shape, new id.
			func(cur Cursor) (*Batch, error) {
				return &Batch{Frames: nil,
					Next: cur, Lead: Cursor{Gen: 1, Off: 10}, StoreID: "leader-new"}, nil
			},
			// The follower must come back asking for a bootstrap.
			func(cur Cursor) (*Batch, error) {
				if !cur.IsZero() {
					return nil, fmt.Errorf("after id change cursor = %v, want zero", cur)
				}
				return snap("leader-new", entry(7, "carol"), 10)(cur)
			},
		},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1, Off: 10},
		Lead: Cursor{Gen: 1, Off: 10}, StoreID: "leader-new"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)

	if ids := ap.ids(); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("state after re-bootstrap = %v, want [7]", ids)
	}
	if st := f.Status(); st.Bootstraps != 2 || st.LeaderStoreID != "leader-new" {
		t.Errorf("status = %+v", st)
	}
}

func TestFollowerRebootstrapsOnDamagedFrames(t *testing.T) {
	good := frames(t, store.Record{Op: store.OpRegister, Entries: []index.Entry{entry(9, "dave")}})
	// Every batch reports the leader at the end of the good tail, so the
	// follower is caught up only once it has applied the last step.
	lead := Cursor{Gen: 1, Off: int64(len(good))}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			func(Cursor) (*Batch, error) {
				return &Batch{Entries: nil,
					Next: Cursor{Gen: 1, Off: 0}, Lead: lead, StoreID: "L"}, nil
			},
			func(Cursor) (*Batch, error) {
				return &Batch{Frames: []byte("not a wal frame"),
					Next: Cursor{Gen: 1, Off: 15}, Lead: lead, StoreID: "L"}, nil
			},
			func(cur Cursor) (*Batch, error) {
				if !cur.IsZero() {
					return nil, fmt.Errorf("after damage cursor = %v, want zero", cur)
				}
				return &Batch{Entries: nil,
					Next: Cursor{Gen: 1, Off: 0}, Lead: lead, StoreID: "L"}, nil
			},
			func(Cursor) (*Batch, error) {
				return &Batch{Frames: good, Next: lead, Lead: lead, StoreID: "L"}, nil
			},
		},
	}
	sf.idle = Batch{Next: lead, Lead: lead, StoreID: "L"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)

	if ids := ap.ids(); len(ids) != 1 || ids[0] != 9 {
		t.Fatalf("state after recovery = %v, want [9]", ids)
	}
	if st := f.Status(); st.ApplyErrors != 1 || st.Bootstraps != 2 {
		t.Errorf("status = %+v", st)
	}
}

func TestFollowerRetriesFetchErrors(t *testing.T) {
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			func(Cursor) (*Batch, error) { return nil, errors.New("leader down") },
			func(Cursor) (*Batch, error) {
				return &Batch{Entries: []index.Entry{entry(1, "alice")},
					Next: Cursor{Gen: 1, Off: 5}, Lead: Cursor{Gen: 1, Off: 5}, StoreID: "L"}, nil
			},
		},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1, Off: 5},
		Lead: Cursor{Gen: 1, Off: 5}, StoreID: "L"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)
	st := f.Status()
	if st.FetchErrors != 1 || st.Bootstraps != 1 || st.LastError != "" {
		t.Errorf("status = %+v", st)
	}
}

func TestFollowerLagAccounting(t *testing.T) {
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			func(Cursor) (*Batch, error) {
				// The leader is 40 bytes ahead of the shipped batch.
				return &Batch{Entries: nil,
					Next: Cursor{Gen: 1, Off: 60}, Lead: Cursor{Gen: 1, Off: 100}, StoreID: "L"}, nil
			},
		},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1, Off: 60},
		Lead: Cursor{Gen: 1, Off: 100}, StoreID: "L"}

	f := startFollower(t, sf, newMemApplier())
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Status()
		if st.Bootstraps == 1 {
			if st.LagBytes != 40 || st.CaughtUp {
				t.Fatalf("status = %+v, want lag 40, not caught up", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bootstrap observed; status = %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerRebootstrapsOnUnservableCursor: the leader answers a
// cursor its log no longer holds with an empty batch whose next cursor
// is zero, and the follower bootstraps again rather than tailing on.
func TestFollowerRebootstrapsOnUnservableCursor(t *testing.T) {
	lead := Cursor{Gen: 3, Off: 40}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*Batch, error){
			func(Cursor) (*Batch, error) {
				return &Batch{Entries: []index.Entry{entry(1, "alice")},
					Next: Cursor{Gen: 1, Off: 10}, Lead: lead, StoreID: "L"}, nil
			},
			func(cur Cursor) (*Batch, error) {
				if cur != (Cursor{Gen: 1, Off: 10}) {
					return nil, fmt.Errorf("tail fetch with cursor %v, want 1/10", cur)
				}
				return &Batch{Lead: lead, StoreID: "L"}, nil
			},
			func(cur Cursor) (*Batch, error) {
				if !cur.IsZero() {
					return nil, fmt.Errorf("after an unservable cursor asked with %v, want zero", cur)
				}
				return &Batch{Entries: []index.Entry{entry(2, "bob")}, Next: lead, Lead: lead, StoreID: "L"}, nil
			},
		},
	}
	sf.idle = Batch{Next: lead, Lead: lead, StoreID: "L"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)

	if ids := ap.ids(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("state after re-bootstrap = %v, want [2]", ids)
	}
	if st := f.Status(); st.Bootstraps != 2 || st.ApplyErrors != 0 || st.FetchErrors != 0 {
		t.Errorf("status = %+v", st)
	}
}

func TestStartValidatesOptions(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Fatal("Start with no Fetch/Apply succeeded")
	}
}
