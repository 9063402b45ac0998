package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestReadResponseFramings(t *testing.T) {
	cases := []struct {
		name, wire string
		code       int
		body       string
		keep       bool
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello", 200, "hello", true},
		{"header case and padding", "HTTP/1.1 200 OK\r\ncontent-LENGTH:   5  \r\n\r\nhello", 200, "hello", true},
		{"empty body", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 200, "", true},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2;ext=1\r\nlo\r\n0\r\nTrailer: x\r\n\r\n", 200, "hello", true},
		{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 200, "ok", false},
		{"http/1.0", "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", 200, "ok", false},
		{"until close", "HTTP/1.1 200 OK\r\n\r\nhello", 200, "hello", false},
		{"error status", "HTTP/1.1 400 Bad Request\r\nContent-Length: 4\r\n\r\nnope", 400, "nope", true},
	}
	for _, tc := range cases {
		br := bufio.NewReader(strings.NewReader(tc.wire))
		code, status, body, keep, err := readResponse(br, []byte("pre"))
		if err != nil || code != tc.code || string(body) != "pre"+tc.body || keep != tc.keep {
			t.Errorf("%s: code %d body %q keep %v err %v", tc.name, code, body, keep, err)
		}
		if (tc.code == 200) != (status == "") {
			t.Errorf("%s: status text %q", tc.name, status)
		}
	}
	for name, wire := range map[string]string{
		"empty":                 "",
		"not http":              "SSH-2.0-OpenSSH\r\n\r\n",
		"interim":               "HTTP/1.1 100 Continue\r\n\r\n",
		"short body":            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
		"two lengths":           "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"negative length":       "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"huge length":           "HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
		"gzip":                  "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"bad chunk size":        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"chunk without crlf":    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX0\r\n\r\n",
		"cut in the head":       "HTTP/1.1 200 OK\r\nContent-Le",
		"header without colon":  "HTTP/1.1 200 OK\r\nContent-Length 5\r\n\r\nhello",
		"head line over 4 KB":   "HTTP/1.1 200 OK\r\nX: " + strings.Repeat("y", 5000) + "\r\n\r\n",
		"cut in the last chunk": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
	} {
		if code, _, body, _, err := readResponse(bufio.NewReader(strings.NewReader(wire)), nil); err == nil {
			t.Errorf("%s: accepted, code %d body %q", name, code, body)
		}
	}
}

func TestRenderRefusesUnsafeBytes(t *testing.T) {
	var r ReadRequest
	if err := r.Render("/query", "abc-123", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got, want := string(r.line)+string(r.rest),
		"POST /query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 2\r\nX-Fovr-Trace: abc-123\r\n\r\n{}"; got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
	for _, bad := range [][2]string{{"/query", "a\r\nb"}, {"/query", "a\nb"}, {"/query", "a\x00"}, {"/query", " a"},
		{"/que ry", ""}, {"/query\r\nX: y", ""}, {"", ""}} {
		if err := r.Render(bad[0], bad[1], nil); err == nil {
			t.Errorf("Render(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

// echoNode answers every request on every connection with body, and
// reports each accepted connection.
func echoNode(t *testing.T, body string) (hostport string, accepted chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = make(chan net.Conn, 16) // more than any test here dials
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
			go func() {
				br := bufio.NewReader(c)
				for {
					for { // a request without a body, up to its blank line
						line, err := br.ReadSlice('\n')
						if err != nil {
							return
						}
						if len(line) <= 2 {
							break
						}
					}
					if _, err := io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"+body); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestPoolAndResend walks one connection through its life: dialled by
// RoundTrip, pooled, reused by Send, found stale after the node closed
// it, replaced by RoundTrip's resend, dropped by Close.
func TestPoolAndResend(t *testing.T) {
	hostport, accepted := echoNode(t, "hello")
	p, err := NewPartition("http://" + hostport)
	if err != nil {
		t.Fatal(err)
	}
	var req ReadRequest
	if err := req.Render("/query", "", nil); err != nil {
		t.Fatal(err)
	}
	soon := func() time.Time { return time.Now().Add(5 * time.Second) }

	if _, err := p.Send(&req, soon()); !errors.Is(err, ErrNoConn) {
		t.Fatalf("Send on an empty pool: %v, want ErrNoConn", err)
	}
	body, err := p.RoundTrip(context.Background(), &req, soon())
	if err != nil || string(body) != "hello" {
		t.Fatalf("RoundTrip: %q %v", body, err)
	}
	first := <-accepted

	call, err := p.Send(&req, soon())
	if err != nil {
		t.Fatalf("Send on the pooled connection: %v", err)
	}
	if err := call.Wait(); err != nil {
		t.Fatal(err)
	}
	if body, err = call.Recv([]byte(">"), soon()); err != nil || string(body) != ">hello" {
		t.Fatalf("Recv: %q %v", body, err)
	}
	if len(accepted) != 0 {
		t.Fatal("Send dialled")
	}

	// The node closes the idle connection. Send may or may not notice
	// on its write; Wait must.
	first.Close()
	time.Sleep(20 * time.Millisecond)
	if call, err = p.Send(&req, soon()); err == nil {
		err = call.Wait()
	}
	if !errors.Is(err, ErrStale) {
		t.Fatalf("dead pooled connection: %v, want ErrStale", err)
	}

	// RoundTrip meets a dead pooled connection and resends on a new one.
	if body, err = p.RoundTrip(context.Background(), &req, soon()); err != nil {
		t.Fatal(err)
	}
	second := <-accepted
	second.Close()
	time.Sleep(20 * time.Millisecond)
	if body, err = p.RoundTrip(context.Background(), &req, soon()); err != nil || string(body) != "hello" {
		t.Fatalf("RoundTrip over a stale pooled connection: %q %v", body, err)
	}
	<-accepted

	// A cancelled context aborts the exchange and pools nothing.
	p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err = p.RoundTrip(ctx, &req, soon()); err == nil {
		t.Fatal("RoundTrip under a cancelled context succeeded")
	}
	if _, err := p.Send(&req, soon()); !errors.Is(err, ErrNoConn) {
		t.Fatalf("Send after Close and an aborted exchange: %v, want ErrNoConn", err)
	}
}

func TestWaitReportsSlow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for n := 0; ; n++ {
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) <= 2 {
					break
				}
			}
			if n == 1 {
				<-release // the second request is answered late
			}
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		}
	}()
	p, err := NewPartition("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var req ReadRequest
	if err := req.Render("/nearest", "", nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	if _, err := p.RoundTrip(context.Background(), &req, deadline); err != nil {
		t.Fatal(err)
	}
	call, err := p.Send(&req, time.Now().Add(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := call.Wait(); !errors.Is(err, ErrSlow) {
		t.Fatalf("Wait on a silent node: %v, want ErrSlow", err)
	}
	// The exchange is intact: once the node answers, Finish reads it and
	// the connection is fit for the pool again.
	close(release)
	if body, err := call.Finish(context.Background(), deadline); err != nil || string(body) != "ok" {
		t.Fatalf("Finish: %q %v", body, err)
	}
	if _, err := p.Send(&req, deadline); err != nil {
		t.Fatalf("connection was not pooled after Finish: %v", err)
	}
}
