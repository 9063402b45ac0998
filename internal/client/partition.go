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
	"context"
	"errors"
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
	resp, err := postUpload(ctx, p.Retry, http.DefaultClient, p.BaseURL, u, trace, nil)
	var redirect *redirectError
	if errors.As(err, &redirect) && redirect.Leader != "" && redirect.Leader != p.BaseURL {
		resp, err = postUpload(ctx, p.Retry, http.DefaultClient, redirect.Leader, u, trace, nil)
	}
	return resp, err
}

// Healthz probes the node's /healthz and returns its report
// (getHealthz).
func (p *Partition) Healthz(ctx context.Context) (server.HealthzResponse, error) {
	hr, _, err := getHealthz(ctx, http.DefaultClient, p.BaseURL)
	return hr, err
}
