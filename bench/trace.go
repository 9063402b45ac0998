package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// Span names: the generator records client.request, the middleware
// below records the other two around Router.Handler() and
// Server.Handler(). Spans of one request share the id the generator
// minted and sent as X-Fovr-Trace, which the router forwards.
const (
	spanClient = "client.request"
	spanRouter = "cluster.router"
	spanServer = "server.handler"
)

// serverSpan is one handler invocation seen from outside the program.
type serverSpan struct {
	id      uint64
	name    string
	node    int // which listener: partition index, or -1 for the router
	path    string
	startNs int64
	endNs   int64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []serverSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// wrap records a span around h for every request that carries a trace
// id; requests without one (warm-up, the untraced comparison window)
// pass straight through.
func (t *tracer) wrap(name string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(traceHeader)
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(hdr, 16, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, serverSpan{id: id, name: name, node: node, path: r.URL.Path, startNs: t.since(start), endNs: t.since(end)})
		t.mu.Unlock()
	})
}

func (t *tracer) take() []serverSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// traced is one request with every span recorded for it.
type traced struct {
	client  clientSpan
	router  *serverSpan
	servers []serverSpan
}

// joinSpans groups server-side spans under the generator's spans.
func joinSpans(clients []clientSpan, servers []serverSpan) []traced {
	byID := make(map[uint64]int, len(clients))
	out := make([]traced, len(clients))
	for i, c := range clients {
		out[i].client = c
		byID[c.id] = i
	}
	for i := range servers {
		s := servers[i]
		j, ok := byID[s.id]
		if !ok {
			continue
		}
		if s.name == spanRouter {
			out[j].router = &servers[i]
		} else {
			out[j].servers = append(out[j].servers, s)
		}
	}
	return out
}

// maxTraceLines bounds the trace file; the analysis uses every span.
const maxTraceLines = 60_000

// writeTrace writes spans as JSON lines: name, trace id, the span that
// caused it, start and end in ns since the tracer's epoch.
func writeTrace(path string, ts []traced) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Trace   string `json:"trace"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		Path    string `json:"path"`
		Node    *int   `json:"node,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	lines := 0
	for _, t := range ts {
		if lines >= maxTraceLines {
			break
		}
		id := strconv.FormatUint(t.client.id, 16)
		path := kindPath[t.client.kind]
		_ = enc.Encode(line{Trace: id, Name: spanClient, Path: path, StartNs: t.client.startNs, EndNs: t.client.endNs})
		parent := spanClient
		if t.router != nil {
			_ = enc.Encode(line{Trace: id, Name: spanRouter, Parent: parent, Path: path, StartNs: t.router.startNs, EndNs: t.router.endNs})
			parent = spanRouter
		}
		for i := range t.servers {
			s := &t.servers[i]
			_ = enc.Encode(line{Trace: id, Name: spanServer, Parent: parent, Path: s.path, Node: &s.node, StartNs: s.startNs, EndNs: s.endNs})
		}
		lines += 2 + len(t.servers)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionNs is the total time covered by the spans' intervals.
func unionNs(spans []serverSpan) int64 {
	if len(spans) == 0 {
		return 0
	}
	// Fan-out is at most a handful of partitions: insertion sort.
	s := append([]serverSpan(nil), spans...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].startNs < s[j-1].startNs; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	total, lo, hi := int64(0), s[0].startNs, s[0].endNs
	for _, x := range s[1:] {
		if x.startNs > hi {
			total += hi - lo
			lo, hi = x.startNs, x.endNs
		} else if x.endNs > hi {
			hi = x.endNs
		}
	}
	return total + hi - lo
}
