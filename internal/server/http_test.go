package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHTTPServerTimeouts: NewHTTPServer sets both connection timeouts, a
// client that sends only part of its headers is disconnected once
// ReadHeaderTimeout passes, and an idle keep-alive connection is closed
// once IdleTimeout passes. The test shortens both to keep it fast.
func TestHTTPServerTimeouts(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(s.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts %v/%v, want %v/%v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	hs.ReadHeaderTimeout = 150 * time.Millisecond
	hs.IdleTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	// closedWithin reads until the server closes the connection, failing
	// if that takes longer than limit.
	closedWithin := func(conn net.Conn, limit time.Duration, what string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(limit))
		_, err := io.Copy(io.Discard, conn)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open after %v", what, limit)
		}
	}

	partial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := io.WriteString(partial, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	closedWithin(partial, 5*time.Second, "client stalled mid-headers")

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request answered %d", resp.StatusCode)
	}
	closedWithin(idle, 5*time.Second, "idle keep-alive connection")
}
