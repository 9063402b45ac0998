// Package client implements the mobile side of the system: the capture
// session that runs the real-time segmenter while "recording" (Section
// II-C's backstage process), the descriptor uploader, and the querier.
//
// A CaptureSession consumes sensor samples one at a time — exactly the
// listener shape the Android prototype uses — and accumulates one
// representative FoV per finished segment. Stopping the session flushes
// the tail segment and hands back the upload payload; Upload ships it to
// the cloud in the compact binary format, counting every byte so the
// evaluation can report the client's networking cost.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"fovr/internal/fov"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/wire"
)

// Client-side metrics (process-wide, obs.Default): bytes crossing the
// boundary from this side, and upload retry attempts — the mobile
// networking cost the paper's Section VI-D traffic evaluation measures.
var (
	clientSentBytes     = obs.GetOrCreateCounter("fovr_client_sent_bytes_total")
	clientReceivedBytes = obs.GetOrCreateCounter("fovr_client_received_bytes_total")
	uploadRetries       = obs.GetOrCreateCounter("fovr_client_upload_retries_total")
)

// Stage timers for the client paths, resolved once instead of a
// per-call registry lookup.
var (
	pushSpan      = obs.NewSpanTimer("capture.push")
	uploadSpan    = obs.NewSpanTimer("upload.post")
	roundtripSpan = obs.NewSpanTimer("query.roundtrip")
)

// CaptureSession is one recording in progress.
type CaptureSession struct {
	provider string
	camera   fov.Camera
	seg      *segment.Segmenter
	reps     []segment.Representative
	frames   int
}

// NewCaptureSession starts a recording for the given provider identity.
func NewCaptureSession(provider string, cfg segment.Config) (*CaptureSession, error) {
	if provider == "" {
		return nil, errors.New("client: empty provider")
	}
	cfg.KeepSamples = false // the client never retains frames for upload
	sg, err := segment.NewSegmenter(cfg)
	if err != nil {
		return nil, err
	}
	return &CaptureSession{provider: provider, camera: cfg.Camera, seg: sg}, nil
}

// Push feeds the next sensor sample; O(1) per frame.
func (c *CaptureSession) Push(s fov.Sample) error {
	res, err := c.seg.Push(s)
	if err != nil {
		return err
	}
	if res != nil {
		c.reps = append(c.reps, res.Representative)
	}
	c.frames++
	return nil
}

// PushAll feeds a whole recorded trace, and records the batch's
// per-frame cost in fovr_segment_frame_seconds.
func (c *CaptureSession) PushAll(samples []fov.Sample) error {
	sp := pushSpan.Start()
	for i, s := range samples {
		if err := c.Push(s); err != nil {
			sp.End()
			return fmt.Errorf("client: sample %d: %w", i, err)
		}
	}
	segment.ObserveFrames(sp.End(), len(samples))
	return nil
}

// Stop ends the recording and returns the upload payload: one
// representative per segment, in capture order, with the device's
// viewing geometry declared so the cloud filters with the real optics.
func (c *CaptureSession) Stop() wire.Upload {
	if res := c.seg.Flush(); res != nil {
		c.reps = append(c.reps, res.Representative)
	}
	reps := c.reps
	c.reps = nil
	return wire.Upload{Provider: c.provider, Camera: c.camera, Reps: reps}
}

// Frames returns the number of samples pushed so far.
func (c *CaptureSession) Frames() int { return c.frames }

// Segments returns the number of finished segments so far (an open tail
// segment is not counted until Stop).
func (c *CaptureSession) Segments() int { return len(c.reps) }

// Client talks to a cloud server over HTTP.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8477".
	BaseURL string
	// HTTPClient defaults to a client with a 10 s timeout.
	HTTPClient *http.Client
	// Traffic counts request/response bytes; optional.
	Traffic *wire.TrafficMeter
	// MaxRetries bounds automatic Upload retries after a transient
	// failure (connection error or 502/503/504), with exponential
	// backoff starting at RetryDelay. Zero disables retries. A retried
	// upload can double-register descriptors if the first attempt's
	// response was lost after the server committed — acceptable for
	// descriptors (queries dedupe by distance), noted here for honesty.
	MaxRetries int
	// RetryDelay is the initial backoff; zero means 50 ms.
	RetryDelay time.Duration
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
		Traffic:    &wire.TrafficMeter{},
	}
}

// Upload ships the payload in the compact binary format and returns the
// server-assigned segment ids, retrying transient failures up to
// MaxRetries times.
func (c *Client) Upload(u wire.Upload) ([]uint64, error) {
	ids, _, err := c.UploadTraced(u, "")
	return ids, err
}

// UploadTraced is Upload with cross-process trace propagation: the
// request carries trace in the X-Fovr-Trace header (a fresh random ID
// is minted when trace is empty), the server stamps it into the WAL
// record, and the returned trace ID is resolvable at
// /debug/traces/{id} on the leader and — once the record replicates —
// on every follower, whose apply-side trace names this upload as its
// origin. Retries reuse the same trace ID, so a retried upload's
// attempts stitch to one trace.
func (c *Client) UploadTraced(u wire.Upload, trace string) ([]uint64, string, error) {
	if trace == "" {
		trace = mintTraceID()
	}
	sp := uploadSpan.Start()
	defer sp.End()
	resp, err := postUpload(context.Background(), c.retryPolicy(), c.httpClient(), c.BaseURL, u, trace, c.addTraffic)
	if err != nil {
		return nil, trace, err
	}
	if resp.TraceID != "" {
		trace = resp.TraceID
	}
	return resp.IDs, trace, nil
}

// postUpload is the one /upload exchange, Client's and Partition's: it
// POSTs u, wire binary and under trace, to base through hc, and returns
// the acknowledgement. An attempt that failed by transport, by a cut
// answer or with a retriableStatus is tried again under policy. A 409 is
// a *redirectError carrying the leader the refusing replica names. count,
// when non-nil, is told the bytes of every answered attempt.
func postUpload(ctx context.Context, policy RetryPolicy, hc *http.Client, base string, u wire.Upload, trace string, count func(sent, received int)) (server.UploadResponse, error) {
	var ack server.UploadResponse
	body, err := wire.EncodeBinary(u)
	if err != nil {
		return ack, err
	}
	err = policy.Do(ctx, func() (bool, error) {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/upload", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if trace != "" {
			req.Header.Set(server.TraceHeader, trace)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return !errors.Is(err, context.Canceled), err
		}
		defer resp.Body.Close()
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if count != nil {
			count(len(body), len(respBody))
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(respBody, &ack); err != nil {
				return false, fmt.Errorf("client: %s/upload response: %w", base, err)
			}
			return false, nil
		}
		err = fmt.Errorf("client: %s/upload: %s: %s", base, resp.Status, bytes.TrimSpace(respBody))
		if resp.StatusCode == http.StatusConflict {
			var er server.ErrorResponse
			_ = json.Unmarshal(respBody, &er)
			return false, &redirectError{Leader: er.Leader, msg: err.Error()}
		}
		return retriableStatus(resp.StatusCode), err
	})
	return ack, err
}

// redirectError carries a read replica's 409 leader hint.
type redirectError struct {
	Leader string
	msg    string
}

func (e *redirectError) Error() string { return e.msg }

// mintTraceID returns a random 16-hex-digit trace ID with a client
// prefix, so leader-side listings show where a trace originated.
func mintTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; for a
		// debug identifier a constant fallback is acceptable.
		return "up-00000000"
	}
	return "up-" + hex.EncodeToString(b[:])
}

// Query runs a retrieval request and returns the ranked results along
// with the server-reported search time.
func (c *Client) Query(q query.Query, maxResults int) ([]query.Ranked, time.Duration, error) {
	sp := roundtripSpan.Start()
	defer sp.End()
	body, err := json.Marshal(server.QueryRequest{Query: q, MaxResults: maxResults})
	if err != nil {
		return nil, 0, err
	}
	respBody, err := c.post("/query", "application/json", body)
	if err != nil {
		return nil, 0, err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return nil, 0, fmt.Errorf("client: query response: %w", err)
	}
	return resp.Results, time.Duration(resp.ElapsedMicros) * time.Microsecond, nil
}

// QueryExplain runs a retrieval request with explain=1 and returns the
// full response, including the inline query trace (stage timings, index
// traversal counters, and the per-candidate drop breakdown).
func (c *Client) QueryExplain(q query.Query, maxResults int) (server.QueryResponse, error) {
	sp := roundtripSpan.Start()
	defer sp.End()
	body, err := json.Marshal(server.QueryRequest{Query: q, MaxResults: maxResults})
	if err != nil {
		return server.QueryResponse{}, err
	}
	respBody, err := c.post("/query?explain=1", "application/json", body)
	if err != nil {
		return server.QueryResponse{}, err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return server.QueryResponse{}, fmt.Errorf("client: explain response: %w", err)
	}
	return resp, nil
}

// Traces fetches the server's retained query traces (tail-sampled:
// every errored and slow query, plus a 1-in-N sample of the rest).
func (c *Client) Traces() (server.TracesResponse, error) {
	var resp server.TracesResponse
	if err := c.getJSON("/debug/traces", &resp); err != nil {
		return server.TracesResponse{}, err
	}
	return resp, nil
}

// Trace fetches one retained trace by id.
func (c *Client) Trace(id string) (*obs.QueryTrace, error) {
	var tr obs.QueryTrace
	if err := c.getJSON("/debug/traces/"+id, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Metrics scrapes the server's GET /metrics exposition.
func (c *Client) Metrics() (obs.Scrape, error) {
	httpResp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	c.addTraffic(0, len(body))
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: metrics: %s: %s", httpResp.Status, bytes.TrimSpace(body))
	}
	return obs.ParseScrape(string(body))
}

// Healthz fetches the server's evaluated health report (getHealthz).
func (c *Client) Healthz() (server.HealthzResponse, error) {
	hr, n, err := getHealthz(context.Background(), c.httpClient(), c.BaseURL)
	c.addTraffic(0, n)
	return hr, err
}

// getHealthz GETs base's /healthz report through hc and returns it with
// the body's length. Unlike the other getters it decodes the body on a
// 503 too — a failing node still answers, and that status IS its
// report — so only transport errors and other statuses are errors.
func getHealthz(ctx context.Context, hc *http.Client, base string) (server.HealthzResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return server.HealthzResponse{}, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return server.HealthzResponse{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.HealthzResponse{}, len(body), err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return server.HealthzResponse{}, len(body), fmt.Errorf("client: %s/healthz: %s: %s", base, resp.Status, bytes.TrimSpace(body))
	}
	var hr server.HealthzResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		return server.HealthzResponse{}, len(body), fmt.Errorf("client: %s/healthz response: %w", base, err)
	}
	return hr, len(body), nil
}

func (c *Client) getJSON(path string, out any) error {
	httpResp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return err
	}
	c.addTraffic(0, len(body))
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s: %s: %s", path, httpResp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// Stats fetches the server's state summary.
func (c *Client) Stats() (server.Stats, error) {
	var st server.Stats
	if err := c.getJSON("/stats", &st); err != nil {
		return server.Stats{}, err
	}
	return st, nil
}

// post performs one POST (no retry) and returns the body of its 200
// answer.
func (c *Client) post(path, contentType string, body []byte) ([]byte, error) {
	resp, err := c.httpClient().Post(c.BaseURL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	c.addTraffic(len(body), len(respBody))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: %s: %s: %s", path, resp.Status, bytes.TrimSpace(respBody))
	}
	return respBody, nil
}

// retryPolicy is the upload path's RetryPolicy: the client's knobs
// plus the upload retry counter.
func (c *Client) retryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: c.MaxRetries, Delay: c.RetryDelay, Retries: uploadRetries}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) addTraffic(sent, received int) {
	if c.Traffic != nil {
		c.Traffic.AddSent(sent)
		c.Traffic.AddReceived(received)
	}
	clientSentBytes.Add(int64(sent))
	clientReceivedBytes.Add(int64(received))
}

// Checkpoint asks the server to persist its full state and truncate
// the write-ahead log now. It fails when the server runs without a
// data directory.
func (c *Client) Checkpoint() (server.CheckpointResponse, error) {
	respBody, err := c.post("/checkpoint", "text/plain", nil)
	if err != nil {
		return server.CheckpointResponse{}, err
	}
	var out server.CheckpointResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		return server.CheckpointResponse{}, fmt.Errorf("client: checkpoint response: %w", err)
	}
	return out, nil
}

// Forget asks the server to delete every segment this provider has
// contributed (the privacy opt-out). It returns the number removed.
func (c *Client) Forget(provider string) (int, error) {
	respBody, err := c.post("/forget?"+url.Values{"provider": {provider}}.Encode(), "text/plain", nil)
	if err != nil {
		return 0, err
	}
	var out map[string]int
	if err := json.Unmarshal(respBody, &out); err != nil {
		return 0, fmt.Errorf("client: forget response: %w", err)
	}
	return out["removed"], nil
}
