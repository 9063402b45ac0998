// Replicator is the HTTP fetcher a read replica pulls the leader's state
// through: one GET /replicate per call, with resumable cursors in the
// query string and the next cursor handed back in response headers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fovr/internal/obs"
	"fovr/internal/replica"
	"fovr/internal/store"
)

var replicaFetchRetries = obs.GetOrCreateCounter("fovr_replica_fetch_retries_total")

// Replicator implements replica.Fetcher over HTTP against a leader's
// /replicate endpoint.
type Replicator struct {
	// BaseURL is the leader root, e.g. "http://127.0.0.1:8477".
	BaseURL string
	// HTTPClient must not carry a global timeout: a long-poll legitimately
	// idles for the full requested wait. Each call bounds itself with a
	// per-request context instead. Nil selects a fresh default client.
	HTTPClient *http.Client
	// MaxRetries bounds automatic retries per call after a transient
	// failure, with exponential backoff starting at RetryDelay (the same
	// policy as Client.Upload). Zero disables retries.
	MaxRetries int
	// RetryDelay is the initial backoff; zero means 50 ms.
	RetryDelay time.Duration
}

// NewReplicator returns a fetcher for the leader at baseURL with the
// default retry policy.
func NewReplicator(baseURL string) *Replicator {
	return &Replicator{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{},
		MaxRetries: 3,
		RetryDelay: 100 * time.Millisecond,
	}
}

// bootstrapTimeout bounds each bootstrap leg, retries included.
const bootstrapTimeout = 2 * time.Minute

// Fetch performs one log-tail round-trip from cur, asking the leader to
// hold the request up to wait when there is nothing new. The request is
// bounded by wait plus a grace period so a hung leader cannot pin the
// follower forever, and the body by store.MaxTailBytes, the most one
// leader read returns.
func (r *Replicator) Fetch(ctx context.Context, cur replica.Cursor, wait time.Duration) (*replica.Batch, error) {
	url := fmt.Sprintf("%s/replicate?gen=%d&off=%d&wait=%s", r.BaseURL, cur.Gen, cur.Off, wait)
	var b *replica.Batch
	err := r.get(ctx, url, replica.StreamWAL, wait+15*time.Second, func(h http.Header, body io.Reader) error {
		frames, err := io.ReadAll(io.LimitReader(body, store.MaxTailBytes+1))
		if err != nil {
			return fmt.Errorf("client: replicate wal body: %w", err)
		}
		if len(frames) > store.MaxTailBytes {
			return fmt.Errorf("client: replicate wal body exceeds the %d bytes one leader read returns", store.MaxTailBytes)
		}
		b = batchHeaders(h)
		b.Frames = frames
		return nil
	})
	return b, err
}

// FetchManifest pulls the leader's recovery root (?manifest=1):
// segments, tombstones and the WAL base generation.
func (r *Replicator) FetchManifest(ctx context.Context) (*replica.ManifestBatch, error) {
	var mb *replica.ManifestBatch
	err := r.get(ctx, r.BaseURL+"/replicate?manifest=1", replica.StreamManifest, bootstrapTimeout, func(h http.Header, body io.Reader) error {
		b := batchHeaders(h)
		mb = &replica.ManifestBatch{StoreID: b.StoreID, Lead: b.Lead}
		if err := json.NewDecoder(io.LimitReader(body, 64<<20)).Decode(&mb.Manifest); err != nil {
			return fmt.Errorf("client: replicate manifest: %w", err)
		}
		return nil
	})
	return mb, err
}

// FetchSegment pulls the verbatim file bytes of the sealed segment meta
// names (?segment=W&seq=N), reading no more than the meta.Bytes the
// manifest advertised. The caller verifies them against the rest of the
// meta on install.
func (r *Replicator) FetchSegment(ctx context.Context, meta store.SegmentMeta) ([]byte, error) {
	url := fmt.Sprintf("%s/replicate?segment=%d&seq=%d", r.BaseURL, meta.Window, meta.Seq)
	var raw []byte
	err := r.get(ctx, url, replica.StreamSegment, bootstrapTimeout, func(_ http.Header, body io.Reader) error {
		var err error
		raw, err = io.ReadAll(io.LimitReader(body, meta.Bytes+1))
		if err != nil {
			return fmt.Errorf("client: replicate segment: %w", err)
		}
		if int64(len(raw)) > meta.Bytes {
			return fmt.Errorf("client: replicate segment %d/%d: body exceeds the %d bytes the manifest advertised",
				meta.Window, meta.Seq, meta.Bytes)
		}
		return nil
	})
	return raw, err
}

// get runs one /replicate GET under the retry policy, bounded by
// timeout: it checks the status and the stream kind before the body is
// consumed, counts the body bytes, and hands headers and body to parse.
// A body parse fails the attempt retriably — a cut or damaged body can
// be re-requested.
func (r *Replicator) get(ctx context.Context, url, kind string, timeout time.Duration, parse func(http.Header, io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hc := r.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return r.retryPolicy().Do(ctx, func() (bool, error) {
		if ctx.Err() != nil {
			return false, ctx.Err() // canceled: retrying cannot help
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return false, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return !errors.Is(err, context.Canceled), err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
			return retriableStatus(resp.StatusCode), fmt.Errorf("client: replicate: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		if got := resp.Header.Get(replica.HeaderStream); got != kind {
			return false, fmt.Errorf("client: replicate: stream kind %q, want %q", got, kind)
		}
		cr := &countReader{r: resp.Body}
		defer func() { clientReceivedBytes.Add(cr.n) }()
		if err := parse(resp.Header, cr); err != nil {
			return true, err
		}
		return false, nil
	})
}

// batchHeaders decodes the identity and cursor headers every
// /replicate response carries.
func batchHeaders(h http.Header) *replica.Batch {
	b := &replica.Batch{StoreID: h.Get(replica.HeaderStoreID)}
	b.Next.Gen, _ = strconv.ParseUint(h.Get(replica.HeaderNextGen), 10, 64)
	b.Next.Off, _ = strconv.ParseInt(h.Get(replica.HeaderNextOff), 10, 64)
	b.Lead.Gen, _ = strconv.ParseUint(h.Get(replica.HeaderLeadGen), 10, 64)
	b.Lead.Off, _ = strconv.ParseInt(h.Get(replica.HeaderLeadOff), 10, 64)
	return b
}

// countReader tallies bytes for the client traffic counter.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// retryPolicy is the replication fetch RetryPolicy: the replicator's
// knobs plus the replica fetch retry counter.
func (r *Replicator) retryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: r.MaxRetries, Delay: r.RetryDelay, Retries: replicaFetchRetries}
}
