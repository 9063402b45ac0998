// The read leg: how the cluster router talks to a partition node for
// /query and /nearest. A Partition owns a small free-list of keep-alive
// HTTP/1.1 connections to its endpoint and speaks just enough of the
// protocol for these two routes of our own server — one POST with a
// Content-Length out, one response with a Content-Length or chunked
// body back — so that a routed read costs one write and one buffered
// read per partition and no goroutine, context, channel or timer of its
// own. Everything else a partition client does (upload forwarding,
// health probes) stays on net/http.
//
// Two ways through it:
//
//   - Send / Wait / Recv, for the router's common case. Send only ever
//     uses a pooled connection and never dials, so the caller's goroutine
//     is never parked in a connect; the caller writes every leg, then
//     reads them back in turn under connection deadlines.
//   - RoundTrip, for a leg that left that path (no pooled connection, a
//     stale one, a slow or failed leader): one whole exchange under a
//     context whose cancellation closes the connection. It dials when it
//     has to and resends once, on a fresh connection, when a pooled one
//     turns out to have been closed by the server while idle — nothing
//     of a response has been read at that point and both routes are
//     idempotent.
//
// A connection goes back to the free-list only after a complete
// response on a keep-alive exchange with nothing left in its buffer;
// every other ending closes it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"fovr/internal/server"
)

// maxIdleConns bounds the free-list; the number of connections in use
// is the router's own request concurrency.
const maxIdleConns = 32

// maxAnswerBytes bounds a response body: far above any top-N answer,
// far below what a corrupt length could ask for.
const maxAnswerBytes = 64 << 20

var (
	// ErrSlow: Wait's deadline passed before any byte of the response
	// arrived. The exchange is intact and can still be read.
	ErrSlow = errors.New("client: partition has not answered yet")
	// ErrStale: a pooled connection failed before any byte of the
	// response arrived — the server closed it while it idled. The
	// request may be sent again on a new connection.
	ErrStale = errors.New("client: pooled connection was closed by the partition")
	// ErrNoConn: Send found no pooled connection.
	ErrNoConn = errors.New("client: no pooled connection")
)

// ParseEndpoint checks that baseURL is a plain node root,
// "http://host:port" and nothing else (nothing here serves TLS, and a
// path, query or userinfo would be silently dropped from requests),
// and returns the host:port to dial and to name in Host.
func ParseEndpoint(baseURL string) (hostport string, err error) {
	u, err := url.Parse(baseURL)
	switch {
	case err != nil: // reported below, with the hint
	case u.Scheme != "http":
		err = errors.New("scheme must be http")
	case u.User != nil:
		err = errors.New("userinfo not allowed")
	case u.Hostname() == "" || u.Port() == "":
		err = errors.New("want host:port")
	case u.Path != "" || u.RawQuery != "" || u.Fragment != "" || u.Opaque != "" || u.ForceQuery:
		err = errors.New("path, query and fragment not allowed")
	case !ValidHeaderValue(u.Host):
		err = errors.New("host has control bytes")
	}
	if err != nil {
		return "", fmt.Errorf("client: endpoint %q: %w (want http://host:port)", baseURL, err)
	}
	return u.Host, nil
}

// ValidHeaderValue reports whether s may be written into a request head
// as a field value or part of a request target: no control byte (so no
// CR or LF can end the line early) and no space at either end.
func ValidHeaderValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == 0x7f {
			return false
		}
	}
	return s == "" || (s[0] != ' ' && s[len(s)-1] != ' ')
}

// ReadRequest is one POST to a read route, rendered once for every
// endpoint it is sent to; only the Host line differs between them.
type ReadRequest struct {
	line []byte // request line
	rest []byte // the fields after Host, the blank line, the body
}

// Render fills r with a JSON POST of body to path, forwarding trace
// (when non-empty) as the trace header.
func (r *ReadRequest) Render(path, trace string, body []byte) error {
	if path == "" || !ValidHeaderValue(path) || strings.IndexByte(path, ' ') >= 0 || !ValidHeaderValue(trace) {
		return fmt.Errorf("client: request target %q or trace id %q has bytes that cannot go into a request head", path, trace)
	}
	r.line = append(append(append(r.line[:0], "POST "...), path...), " HTTP/1.1\r\n"...)
	b := append(r.rest[:0], "Content-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if trace != "" {
		b = append(append(append(append(b, "\r\n"...), server.TraceHeader...), ": "...), trace...)
	}
	b = append(b, "\r\n\r\n"...)
	r.rest = append(b, body...)
	return nil
}

// Clone returns a copy that shares nothing with r.
func (r *ReadRequest) Clone() *ReadRequest {
	return &ReadRequest{line: bytes.Clone(r.line), rest: bytes.Clone(r.rest)}
}

// conn is one owned connection.
type conn struct {
	nc net.Conn
	br *bufio.Reader
	// out is the buffer a request is assembled in before its one write.
	out []byte
	// readBy is the read deadline currently set on nc.
	readBy time.Time
}

// Call is one request in flight on a connection the partition owns.
type Call struct {
	p *Partition
	c *conn
}

// takeIdle pops the most recently used idle connection.
func (p *Partition) takeIdle() *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return c
	}
	return nil
}

func (p *Partition) putIdle(c *conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleConns {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
}

// DropIdle closes every pooled connection: one of them was found dead
// (a restarted server has closed them all) or out of step with its
// requests.
func (p *Partition) DropIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// Close drops the pooled connections; connections in use are closed as
// their exchanges end. The cold-path methods keep working.
func (p *Partition) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.DropIdle()
}

func (p *Partition) dial(ctx context.Context, deadline time.Time) (*conn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", p.hostport)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// write sends req on c in one write, with both deadlines at by.
func (p *Partition) write(c *conn, req *ReadRequest, by time.Time) error {
	c.out = append(append(append(append(c.out[:0], req.line...), "Host: "...), p.hostport...), "\r\n"...)
	c.out = append(c.out, req.rest...)
	c.readBy = by
	if err := c.nc.SetDeadline(by); err != nil {
		return err
	}
	_, err := c.nc.Write(c.out)
	return err
}

// Send writes req on a pooled connection; the response's first byte is
// due by until. It reports ErrNoConn when nothing is pooled and
// ErrStale when the pooled connection could not be written to; it
// never dials.
func (p *Partition) Send(req *ReadRequest, until time.Time) (Call, error) {
	c := p.takeIdle()
	if c == nil {
		return Call{}, ErrNoConn
	}
	if err := p.write(c, req, until); err != nil {
		c.nc.Close()
		p.DropIdle()
		return Call{}, ErrStale
	}
	return Call{p: p, c: c}, nil
}

// Wait blocks until the response has begun or the deadline given to
// Send passes (ErrSlow). On a pooled connection any other failure this
// early is ErrStale; the call is closed then.
func (k Call) Wait() error {
	_, err := k.c.br.Peek(1)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return ErrSlow
	}
	k.Close()
	k.p.DropIdle()
	return ErrStale
}

// Close abandons the exchange and its connection. It is safe to call
// from another goroutine while Recv blocks, which then fails.
func (k Call) Close() { k.c.nc.Close() }

// Recv reads the rest of the exchange by deadline and appends the
// response body to dst. The connection is pooled again after a complete
// keep-alive response and closed otherwise. A status other than 200 is
// an error carrying the status line and the body.
func (k Call) Recv(dst []byte, deadline time.Time) ([]byte, error) {
	dst, keep, err := k.recv(dst, deadline)
	k.release(keep)
	return dst, err
}

// recv is Recv without the pooling: keep reports whether the
// connection is fit for another exchange; it is already closed if not.
func (k Call) recv(dst []byte, deadline time.Time) (body []byte, keep bool, err error) {
	c := k.c
	if !deadline.Equal(c.readBy) {
		c.readBy = deadline
		if err := c.nc.SetReadDeadline(deadline); err != nil {
			c.nc.Close()
			return dst, false, err
		}
	}
	start := len(dst)
	code, status, dst, keep, err := readResponse(c.br, dst)
	if err != nil {
		c.nc.Close()
		return dst[:start], false, fmt.Errorf("client: partition %s: %w", k.p.BaseURL, err)
	}
	if code != 200 {
		err = fmt.Errorf("client: partition %s: %s: %s", k.p.BaseURL, status, bytes.TrimSpace(dst[start:]))
		dst = dst[:start]
	}
	return dst, keep && c.br.Buffered() == 0, err
}

func (k Call) release(keep bool) {
	if keep {
		k.p.putIdle(k.c)
	} else {
		k.c.nc.Close()
	}
}

// RoundTrip is one whole exchange for a caller off the common path. It
// prefers a pooled connection, dials otherwise, and resends once on a
// new connection if the pooled one proves stale. Cancelling ctx closes
// the connection under it.
func (p *Partition) RoundTrip(ctx context.Context, req *ReadRequest, deadline time.Time) ([]byte, error) {
	if c := p.takeIdle(); c != nil {
		body, err := p.exchange(ctx, c, req, deadline, true)
		if !errors.Is(err, ErrStale) {
			return body, err
		}
	}
	c, err := p.dial(ctx, deadline)
	if err != nil {
		return nil, fmt.Errorf("client: partition %s: %w", p.BaseURL, err)
	}
	return p.exchange(ctx, c, req, deadline, false)
}

func (p *Partition) exchange(ctx context.Context, c *conn, req *ReadRequest, deadline time.Time, pooled bool) ([]byte, error) {
	k := Call{p: p, c: c}
	stop := context.AfterFunc(ctx, k.Close)
	err := p.write(c, req, deadline)
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		stop()
		k.Close()
		if pooled && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			p.DropIdle()
			return nil, ErrStale
		}
		return nil, fmt.Errorf("client: partition %s: %w", p.BaseURL, err)
	}
	return k.finish(stop, deadline)
}

// Finish reads the answer of a call that Wait reported ErrSlow for.
// Cancelling ctx closes its connection.
func (k Call) Finish(ctx context.Context, deadline time.Time) ([]byte, error) {
	return k.finish(context.AfterFunc(ctx, k.Close), deadline)
}

// finish is Recv under a cancellation hook: the connection is pooled
// only if the hook is disarmed before it could fire.
func (k Call) finish(stop func() bool, deadline time.Time) ([]byte, error) {
	body, keep, err := k.recv(nil, deadline)
	k.release(stop() && keep)
	return body, err
}

// readResponse reads one HTTP/1.1 response from br, appending its body
// to dst. status is the status line after the version ("200 OK");
// keep reports whether the connection may carry another exchange.
func readResponse(br *bufio.Reader, dst []byte) (code int, status string, body []byte, keep bool, err error) {
	fail := func(err error) (int, string, []byte, bool, error) { return 0, "", dst, false, err }
	line, err := readLine(br)
	if err != nil {
		return fail(err)
	}
	version, rest, _ := bytes.Cut(line, []byte(" "))
	if len(rest) < 3 || (string(version) != "HTTP/1.1" && string(version) != "HTTP/1.0") {
		return fail(fmt.Errorf("malformed status line %q", line))
	}
	if code, err = strconv.Atoi(string(rest[:3])); err != nil || code < 200 {
		return fail(fmt.Errorf("unexpected status line %q", line))
	}
	if code != 200 {
		status = string(rest) // only an error message wants the text
	}
	keep = string(version) == "HTTP/1.1"
	length, chunked := int64(-1), false
	for {
		if line, err = readLine(br); err != nil {
			return fail(err)
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return fail(fmt.Errorf("malformed header line %q", line))
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("content-length")):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || (length >= 0 && length != int64(n)) {
				return fail(fmt.Errorf("bad Content-Length %q", value))
			}
			length = int64(n)
		case bytes.EqualFold(name, []byte("transfer-encoding")):
			if !bytes.EqualFold(value, []byte("chunked")) {
				return fail(fmt.Errorf("unsupported Transfer-Encoding %q", value))
			}
			chunked = true
		case bytes.EqualFold(name, []byte("connection")):
			if bytes.EqualFold(value, []byte("close")) {
				keep = false
			}
		}
	}
	switch {
	case chunked:
		dst, err = readChunked(br, dst)
	case length >= 0:
		dst, err = readN(br, dst, length)
	default: // delimited by the close
		keep = false
		for err == nil {
			dst, err = readN(br, dst, int64(max(br.Buffered(), 1)))
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = nil
		}
	}
	return code, status, dst, keep, err
}

// readLine returns the next line without its CRLF. The slice is only
// valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err // includes bufio.ErrBufferFull: no line of ours is 4 KB long
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readN appends exactly n bytes of br to dst.
func readN(br *bufio.Reader, dst []byte, n int64) ([]byte, error) {
	if n > maxAnswerBytes-int64(len(dst)) {
		return dst, fmt.Errorf("response body over %d bytes", maxAnswerBytes)
	}
	dst = slices.Grow(dst, int(n))
	_, err := io.ReadFull(br, dst[len(dst):len(dst)+int(n)])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return dst, err
	}
	return dst[:len(dst)+int(n)], nil
}

func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return dst, err
		}
		size, _, _ := bytes.Cut(line, []byte(";"))
		n, err := strconv.ParseUint(string(bytes.TrimSpace(size)), 16, 31)
		if err != nil {
			return dst, fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			for { // trailer fields, then the blank line
				if line, err = readLine(br); err != nil || len(line) == 0 {
					return dst, err
				}
			}
		}
		if dst, err = readN(br, dst, int64(n)); err != nil {
			return dst, err
		}
		if line, err = readLine(br); err != nil {
			return dst, err
		}
		if len(line) != 0 {
			return dst, errors.New("chunk not followed by CRLF")
		}
	}
}
