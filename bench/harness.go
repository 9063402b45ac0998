package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// closers runs tear-down steps last-in first-out. Every listener,
// http.Server, Server, Disk, client connection and temp dir a run
// creates is registered here the moment it exists, so an error, a
// signal or the end of the run all unwind the same way.
type closers struct{ fns []func() }

func (c *closers) add(f func()) { c.fns = append(c.fns, f) }

// close may be called more than once; later calls find nothing left.
func (c *closers) close() {
	fns := c.fns
	c.fns = nil
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// onListen, when set by a test, is told every address listen opens.
var onListen func(addr string)

// listen serves h on a fresh loopback port and returns its address. The
// registered closer closes the listener and every open connection and
// waits for the accept loop to return.
func listen(cl *closers, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	cl.add(func() {
		_ = hs.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// conn is one keep-alive HTTP/1.1 client connection. It writes the
// pre-marshalled request bytes and parses just enough of the response
// (status, Content-Length or chunked body), so the generator's own cost
// stays small beside the program's.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body []byte // last response body; valid until the next do
}

func dial(cl *closers, addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl.add(func() { _ = c.Close() })
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 16<<10)}, nil
}

const traceHeader = "X-Fovr-Trace"

// do sends one request and reads the whole response. trace, when not
// empty, is sent as the X-Fovr-Trace header.
func (c *conn) do(req *request, trace string) (status int, err error) {
	c.bw.Write(req.head)
	if trace != "" {
		c.bw.WriteString(traceHeader + ": " + trace + "\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(req.body)
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return c.readResponse()
}

func (c *conn) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, fmt.Errorf("content-length %q: %w", val, err)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if err != nil {
				return 0, fmt.Errorf("chunk size %q: %w", line, err)
			}
			if err := c.readBody(int(size) + 2); err != nil { // chunk + CRLF
				return 0, err
			}
			c.body = c.body[:len(c.body)-2]
			if size == 0 {
				return status, nil
			}
		}
	case length >= 0:
		return status, c.readBody(length)
	default:
		return 0, errors.New("response has neither content-length nor chunked encoding")
	}
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// sample is one answer kept for the oracle: the request, the raw body,
// and, where a writer runs beside the reader, which of the writer's
// uploads could have been visible to it.
type sample struct {
	req     *request
	body    []byte
	ackedLo int // writer uploads acknowledged before the request was sent
	ackedHi int // writer uploads sent by the time the answer arrived
}

// op is one completed request of the measured window.
type op struct {
	kind  int
	endNs int64 // completion, ns since the window opened
	durNs int64 // latency: from send (closed loop) or from due time (open loop)
	bytes int   // response body size
}

// clientSpan is the generator's side of a traced request.
type clientSpan struct {
	id      uint64
	kind    int
	startNs int64 // ns since the tracer's epoch
	endNs   int64
}

// loadStats is what one connection observed.
type loadStats struct {
	ops     []op
	samples []sample
	spans   []clientSpan
	failed  int     // transport errors and non-200 answers inside the window
	lateNs  []int64 // uploads sent right after a read: how long past their due time
	err     error   // the error that ended the loop early, if any
}

// window is the timing of one measurement: requests completing before
// open are warm-up and dropped; the loop stops at close.
type window struct {
	open  time.Time
	close time.Time
	every time.Duration // minimum spacing of oracle samples per connection
}

// progress counts the writer's uploads for the reader's samples.
type progress struct {
	mu    sync.Mutex
	sent  int
	acked int
}

func (p *progress) add(sent, acked int) {
	p.mu.Lock()
	p.sent += sent
	p.acked += acked
	p.mu.Unlock()
}

func (p *progress) read() (sent, acked int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent, p.acked
}

// schedule is the open-loop write stream riding on one connection:
// upload i is due at start + i*interval whatever happened to the ones
// before it.
type schedule struct {
	start    time.Time
	interval time.Duration
	uploads  []upload
	onAck    func(u *upload, body []byte) error // receives each acknowledged upload's answer
}

// clientLoop drives one connection until the window closes. It is a
// closed loop of reads: the next request goes out as soon as the
// previous answer is read; pick maps the read counter to a request.
// With a schedule, an upload that has come due goes out in place of the
// next read and is timed from its due time, so a stall shows up in the
// latency of every upload queued behind it. tr is nil in untraced runs;
// writer, when not nil, is the progress of the workload's write stream,
// which the oracle needs with each sampled answer and a schedule
// advances.
func clientLoop(ctx context.Context, c *conn, w window, pick func(i int) *request, connID int, tr *tracer, writer *progress, sched *schedule) *loadStats {
	st := &loadStats{}
	nextSample := w.open
	var idBuf [20]byte
	reads, uploads := 0, 0
	afterRead := true // the connection was not busy with an upload before this request
	for seq := 0; ctx.Err() == nil; seq++ {
		now := time.Now()
		if !now.Before(w.close) {
			break
		}
		req, from := pick(reads), now
		var up *upload
		if sched != nil && uploads < len(sched.uploads) {
			if due := sched.start.Add(time.Duration(uploads) * sched.interval); !now.Before(due) {
				up, req, from = &sched.uploads[uploads], &sched.uploads[uploads].req, due
			}
		}
		var (
			trace string
			id    uint64
		)
		if tr != nil {
			id = uint64(connID)<<40 | uint64(seq)
			trace = string(strconv.AppendUint(idBuf[:0], id, 16))
		}
		_, ackedLo := writer.read()
		if up != nil {
			uploads++
			writer.add(1, 0)
		} else {
			reads++
		}
		start := time.Now()
		status, err := c.do(req, trace)
		end := time.Now()
		if err != nil {
			st.err = fmt.Errorf("%s: %w", kindPath[req.kind], err)
			st.failed++
			break
		}
		inWindow := !end.Before(w.open)
		if status != http.StatusOK {
			if inWindow {
				st.failed++
			}
			continue
		}
		if up != nil {
			if err := sched.onAck(up, c.body); err != nil {
				st.err = err
				st.failed++
				break
			}
			writer.add(0, 1)
		}
		if inWindow {
			st.ops = append(st.ops, op{kind: req.kind, endNs: int64(end.Sub(w.open)), durNs: int64(end.Sub(from)), bytes: len(c.body)})
			if tr != nil {
				st.spans = append(st.spans, clientSpan{id: id, kind: req.kind, startNs: tr.since(start), endNs: tr.since(end)})
			}
			if up != nil && afterRead {
				st.lateNs = append(st.lateNs, int64(start.Sub(from)))
			}
			if up == nil && !end.Before(nextSample) {
				sentHi, _ := writer.read()
				st.samples = append(st.samples, sample{req: req, body: append([]byte(nil), c.body...), ackedLo: ackedLo, ackedHi: sentHi})
				nextSample = end.Add(w.every)
			}
		}
		afterRead = up == nil
	}
	return st
}
