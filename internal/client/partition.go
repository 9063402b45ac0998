// Partition is the cluster router's per-endpoint client: one struct per
// node (leader or replica), deliberately narrower than Client. Reads
// (/query, /nearest) run on connections the Partition owns — see
// readleg.go — and are single-shot: the router's hedging replaces
// per-endpoint retries, and retrying under a hedge would double-bill
// the latency budget. Upload forwarding and health probes are cold
// paths on net/http's default client; forwarding reuses the shared
// RetryPolicy plus the 409 leader-redirect handling followers answer
// with.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fovr/internal/obs"
	"fovr/internal/server"
	"fovr/internal/wire"
)

var partitionForwardRetries = obs.GetOrCreateCounter("fovr_cluster_forward_retries_total")

// Partition talks to one node of a partitioned cluster.
type Partition struct {
	// BaseURL is the node root, e.g. "http://127.0.0.1:8480".
	BaseURL string
	// Retry paces upload forwarding (queries never retry here).
	Retry RetryPolicy

	hostport string // BaseURL's authority: the dial address and the Host line

	mu     sync.Mutex
	idle   []*conn // keep-alive connections between exchanges, most recent last
	closed bool
}

// NewPartition returns a client for the node at baseURL
// ("http://host:port") with the default forwarding retry policy.
func NewPartition(baseURL string) (*Partition, error) {
	hostport, err := ParseEndpoint(baseURL)
	if err != nil {
		return nil, err
	}
	return &Partition{
		BaseURL:  baseURL,
		Retry:    RetryPolicy{MaxRetries: 2, Delay: 50 * time.Millisecond, Retries: partitionForwardRetries},
		hostport: hostport,
	}, nil
}

// Upload forwards one (sub-)upload to the partition. A 409 from a
// follower names its leader in the ErrorResponse; Upload follows that
// redirect once — topology refreshes are the durable fix, the redirect
// just bridges a failover the router has not observed yet. Transient
// failures retry under the shared policy.
func (p *Partition) Upload(ctx context.Context, u wire.Upload, trace string) (server.UploadResponse, error) {
	body, err := wire.EncodeBinary(u)
	if err != nil {
		return server.UploadResponse{}, err
	}
	resp, err := p.uploadTo(ctx, p.BaseURL, body, trace)
	var redirect *redirectError
	if errors.As(err, &redirect) && redirect.Leader != "" && redirect.Leader != p.BaseURL {
		resp, err = p.uploadTo(ctx, redirect.Leader, body, trace)
	}
	return resp, err
}

// redirectError carries a follower's 409 leader hint.
type redirectError struct {
	Leader string
	msg    string
}

func (e *redirectError) Error() string { return e.msg }

func (p *Partition) uploadTo(ctx context.Context, baseURL string, body []byte, trace string) (server.UploadResponse, error) {
	var out server.UploadResponse
	err := p.Retry.Do(ctx, func() (bool, error) {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/upload", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if trace != "" {
			req.Header.Set(server.TraceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return !errors.Is(err, context.Canceled), err
		}
		defer resp.Body.Close()
		respBody, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return false, json.Unmarshal(respBody, &out)
		case http.StatusConflict:
			var er server.ErrorResponse
			_ = json.Unmarshal(respBody, &er)
			return false, &redirectError{
				Leader: er.Leader,
				msg:    fmt.Sprintf("client: partition %s/upload: %s: %s", baseURL, resp.Status, bytes.TrimSpace(respBody)),
			}
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true, fmt.Errorf("client: partition %s/upload: %s: %s", baseURL, resp.Status, bytes.TrimSpace(respBody))
		default:
			return false, fmt.Errorf("client: partition %s/upload: %s: %s", baseURL, resp.Status, bytes.TrimSpace(respBody))
		}
	})
	return out, err
}

// Healthz probes the node's /healthz and returns its report
// (getHealthz).
func (p *Partition) Healthz(ctx context.Context) (server.HealthzResponse, error) {
	hr, _, err := getHealthz(ctx, http.DefaultClient, p.BaseURL)
	return hr, err
}
