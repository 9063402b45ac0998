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

// reply is one scripted leader answer: a log tail, or — for a
// bootstrap, which asks with the zero cursor — a manifest whose BaseGen
// is Next.Gen and whose one segment holds sealed (none when empty).
type reply struct {
	Batch
	sealed []index.Entry
}

// boot scripts a bootstrap answer from the leader store id: sealed is
// the manifest's state, gen its BaseGen, lead the leader's head.
func boot(id string, gen uint64, lead Cursor, sealed ...index.Entry) func(Cursor) (*reply, error) {
	return func(cur Cursor) (*reply, error) {
		if !cur.IsZero() {
			return nil, fmt.Errorf("bootstrap step reached with cursor %v", cur)
		}
		return &reply{Batch: Batch{Next: Cursor{Gen: gen}, Lead: lead, StoreID: id}, sealed: sealed}, nil
	}
}

// scriptFetcher serves a fixed sequence of replies, then idles with
// empty caught-up batches. Each step sees the cursor the follower asked
// with, so a test can assert the resume positions; the manifest leg
// asks with the zero cursor.
type scriptFetcher struct {
	mu    sync.Mutex
	steps []func(cur Cursor) (*reply, error)
	asked []Cursor
	idle  Batch // returned once the script is exhausted
	segs  map[store.SegmentMeta][]byte
}

func (s *scriptFetcher) next(cur Cursor) (*reply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.asked = append(s.asked, cur)
	if len(s.steps) == 0 {
		// Simulate a long poll expiring so the loop does not spin.
		time.Sleep(5 * time.Millisecond)
		return &reply{Batch: s.idle}, nil
	}
	step := s.steps[0]
	s.steps = s.steps[1:]
	return step(cur)
}

func (s *scriptFetcher) Fetch(ctx context.Context, cur Cursor, wait time.Duration) (*Batch, error) {
	r, err := s.next(cur)
	if err != nil {
		return nil, err
	}
	return &r.Batch, nil
}

func (s *scriptFetcher) FetchManifest(ctx context.Context) (*ManifestBatch, error) {
	r, err := s.next(Cursor{})
	if err != nil {
		return nil, err
	}
	mb := &ManifestBatch{StoreID: r.StoreID, Lead: r.Lead, Manifest: store.ManifestSnapshot{BaseGen: r.Next.Gen}}
	if len(r.sealed) > 0 {
		img, crc, err := store.EncodeSegment(0, r.sealed)
		if err != nil {
			return nil, err
		}
		meta := store.SegmentMeta{Seq: 1, Count: len(r.sealed), Bytes: int64(len(img)), CRC: crc}
		s.mu.Lock()
		if s.segs == nil {
			s.segs = map[store.SegmentMeta][]byte{}
		}
		s.segs[meta] = img
		s.mu.Unlock()
		mb.Manifest.Segments = []store.SegmentMeta{meta}
	}
	return mb, nil
}

func (s *scriptFetcher) FetchSegment(_ context.Context, meta store.SegmentMeta) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if raw, ok := s.segs[meta]; ok {
		return raw, nil
	}
	return nil, fmt.Errorf("segment %+v not scripted", meta)
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
	staged  *store.Mem // the bootstrap's installed segments
	resets  int
	traces  []string // propagated trace ids seen by Apply* calls
	failOne error    // next Apply* call fails with this once
}

func newMemApplier() *memApplier {
	return &memApplier{state: map[uint64]index.Entry{}, staged: store.NewMem()}
}

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

func (m *memApplier) HasSegment(window int64, seq uint64, crc uint32) bool {
	return m.staged.HasSegment(window, seq, crc)
}

func (m *memApplier) InstallSegment(meta store.SegmentMeta, raw []byte) error {
	return m.staged.InstallSegment(meta, raw)
}

func (m *memApplier) FinishBootstrap(ms store.ManifestSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.takeFailure(); err != nil {
		return err
	}
	state := make(map[uint64]index.Entry)
	if err := m.staged.FinishBootstrap(ms, func(e *index.Entry) error {
		state[e.ID] = *e
		return nil
	}); err != nil {
		return err
	}
	m.resets++
	m.state = state
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
	head := Cursor{Gen: 1, Off: int64(len(wal))}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*reply, error){
			// The leader's log already holds the tail past its base, so
			// the follower is not caught up until it has applied the next
			// step.
			boot("leader-1", 1, head, entry(1, "alice"), entry(2, "alice")),
			func(cur Cursor) (*reply, error) {
				if cur != (Cursor{Gen: 1, Off: 0}) {
					return nil, fmt.Errorf("tail fetch with cursor %v, want 1/0 (the base generation)", cur)
				}
				return &reply{Batch: Batch{Frames: wal, Next: head, Lead: head, StoreID: "leader-1"}}, nil
			},
		},
	}
	sf.idle = Batch{Next: head, Lead: head, StoreID: "leader-1"}

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
	sf := &scriptFetcher{
		steps: []func(Cursor) (*reply, error){
			// The old leader is ahead of its base: only the second
			// bootstrap leaves the follower caught up.
			boot("leader-old", 1, Cursor{Gen: 1, Off: 20}, entry(1, "alice")),
			// The leader's directory was wiped: same cursor shape, new id.
			func(cur Cursor) (*reply, error) {
				return &reply{Batch: Batch{Next: cur, Lead: Cursor{Gen: 1, Off: 10}, StoreID: "leader-new"}}, nil
			},
			// The follower must come back asking for a bootstrap.
			boot("leader-new", 1, Cursor{Gen: 1}, entry(7, "carol")),
		},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1}, Lead: Cursor{Gen: 1}, StoreID: "leader-new"}

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
	// Every answer reports the leader at the end of the good tail, so
	// the follower is caught up only once it has applied the last step.
	lead := Cursor{Gen: 1, Off: int64(len(good))}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*reply, error){
			boot("L", 1, lead),
			func(Cursor) (*reply, error) {
				return &reply{Batch: Batch{Frames: []byte("not a wal frame"),
					Next: Cursor{Gen: 1, Off: 15}, Lead: lead, StoreID: "L"}}, nil
			},
			boot("L", 1, lead),
			func(Cursor) (*reply, error) {
				return &reply{Batch: Batch{Frames: good, Next: lead, Lead: lead, StoreID: "L"}}, nil
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
		steps: []func(Cursor) (*reply, error){
			func(Cursor) (*reply, error) { return nil, errors.New("leader down") },
			boot("L", 1, Cursor{Gen: 1}, entry(1, "alice")),
		},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1}, Lead: Cursor{Gen: 1}, StoreID: "L"}

	ap := newMemApplier()
	f := startFollower(t, sf, ap)
	waitCaughtUp(t, f)
	st := f.Status()
	if st.FetchErrors != 1 || st.Bootstraps != 1 || st.LastError != "" {
		t.Errorf("status = %+v", st)
	}
	if ids := ap.ids(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("state after bootstrap = %v, want [1]", ids)
	}
}

func TestFollowerLagAccounting(t *testing.T) {
	// The leader's head is 40 bytes past the base generation's start.
	lead := Cursor{Gen: 1, Off: 40}
	sf := &scriptFetcher{
		steps: []func(Cursor) (*reply, error){boot("L", 1, lead)},
	}
	sf.idle = Batch{Next: Cursor{Gen: 1}, Lead: lead, StoreID: "L"}

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
		steps: []func(Cursor) (*reply, error){
			boot("L", 1, lead, entry(1, "alice")),
			func(cur Cursor) (*reply, error) {
				if cur != (Cursor{Gen: 1, Off: 0}) {
					return nil, fmt.Errorf("tail fetch with cursor %v, want 1/0", cur)
				}
				return &reply{Batch: Batch{Lead: lead, StoreID: "L"}}, nil
			},
			boot("L", 3, lead, entry(2, "bob")),
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
