package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"fovr/internal/replica"
	"fovr/internal/store"
)

// TestFetchSegmentBoundedByManifest scripts a leader whose segment body
// runs past the size its manifest advertised: FetchSegment refuses it
// after reading at most one byte beyond that size, and takes a body of
// exactly the advertised size.
func TestFetchSegmentBoundedByManifest(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 1<<16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("segment") != "3" || r.URL.Query().Get("seq") != "1" {
			http.Error(w, "wrong segment", http.StatusNotFound)
			return
		}
		w.Header().Set(replica.HeaderStream, replica.StreamSegment)
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	r := NewReplicator(ts.URL)
	r.MaxRetries = 0

	meta := store.SegmentMeta{Window: 3, Seq: 1, Bytes: 100}
	before := clientReceivedBytes.Value()
	if raw, err := r.FetchSegment(context.Background(), meta); err == nil {
		t.Fatalf("a %d-byte body for a %d-byte segment was accepted (%d bytes)", len(body), meta.Bytes, len(raw))
	}
	if read := clientReceivedBytes.Value() - before; read > meta.Bytes+1 {
		t.Fatalf("read %d body bytes of a %d-byte segment", read, meta.Bytes)
	}

	meta.Bytes = int64(len(body))
	raw, err := r.FetchSegment(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, body) {
		t.Fatalf("got %d bytes, want the %d the leader sent", len(raw), len(body))
	}
}
