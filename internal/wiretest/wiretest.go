// Package wiretest holds the CRS wire-protocol test helpers that the crs
// server's tests and the cluster front-end's tests share: a listener
// that counts the server's writes, and a script runner that checks a
// server answers every request completely and in order, whether the
// requests arrive pipelined or one at a time.
package wiretest

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// CountingListener hands out connections that count the server's Write
// calls; on a TCP socket each one is a write(2).
type CountingListener struct {
	net.Listener
	writes atomic.Int64
}

// Listen opens a loopback CountingListener, closed on test cleanup.
func Listen(t testing.TB) *CountingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return &CountingListener{Listener: l}
}

// Accept wraps the accepted connection in the write counter.
func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

// Writes is the number of Write calls made on accepted connections.
func (l *CountingListener) Writes() int64 { return l.writes.Load() }

// OneWrite runs call — one request and its reply, returning the reply's
// body line count — and checks the reply left the server in exactly one
// write.
func (l *CountingListener) OneWrite(t *testing.T, verb string, call func() (lines int, err error)) {
	t.Helper()
	before := l.Writes()
	lines, err := call()
	if err != nil {
		t.Fatalf("%s: %v", verb, err)
	}
	if lines == 0 {
		t.Fatalf("%s reply has no body lines", verb)
	}
	if got := l.Writes() - before; got != 1 {
		t.Errorf("%s reply (%d body lines) took %d writes, want 1", verb, lines, got)
	}
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// Replies reads a server's reply lines.
type Replies struct {
	t    testing.TB
	conn net.Conn
	in   *bufio.Scanner
}

// Line returns the next reply line; what names it in the failure.
func (r *Replies) Line(what string) string {
	r.t.Helper()
	if !r.in.Scan() {
		r.t.Fatalf("connection ended before %s: %v", what, r.in.Err())
	}
	return r.in.Text()
}

// Prefix reads one line and checks it starts with want.
func (r *Replies) Prefix(want string) string {
	r.t.Helper()
	line := r.Line(strconv.Quote(want))
	if !strings.HasPrefix(line, want) {
		r.t.Fatalf("got %q, want prefix %q", line, want)
	}
	return line
}

// Block reads a "<verb> <n>" header and its n "<tag> ..." lines, and
// returns n.
func (r *Replies) Block(verb, tag string) int {
	r.t.Helper()
	head := r.Line(verb + " header")
	n, err := strconv.Atoi(strings.TrimPrefix(head, verb+" "))
	if err != nil || !strings.HasPrefix(head, verb+" ") {
		r.t.Fatalf("want %s header, got %q", verb, head)
	}
	for i := 0; i < n; i++ {
		line := r.Line(fmt.Sprintf("%s line %d of %d", verb, i+1, n))
		if !strings.HasPrefix(line, tag+" ") {
			r.t.Fatalf("%s line %d = %q, want prefix %q", verb, i+1, line, tag+" ")
		}
	}
	return n
}

// Step is one request line and the check of its complete reply.
type Step struct {
	Req   string
	Check func(r *Replies)
}

// RunScript checks that the server at addr answers steps completely
// and in order, twice. First one write carries every request and QUIT,
// pipelined; then, on a fresh connection, each request is sent only
// after the previous reply has been read, and QUIT last. Both passes
// must end with BYE and the server closing the connection. Every read
// runs under a deadline, so a reply that the server leaves unflushed
// while it blocks for the next request fails the test instead of
// hanging it; the one-at-a-time pass makes each step in turn the last
// request before such a read.
func RunScript(t *testing.T, addr string, steps []Step) {
	t.Helper()
	var batch strings.Builder
	for _, s := range steps {
		batch.WriteString(s.Req + "\n")
	}
	r := dial(t, addr)
	r.send(batch.String() + "QUIT\n")
	for _, s := range steps {
		s.Check(r)
	}
	r.bye()

	r = dial(t, addr)
	for _, s := range steps {
		r.send(s.Req + "\n")
		s.Check(r)
	}
	r.send("QUIT\n")
	r.bye()
}

func dial(t *testing.T, addr string) *Replies {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := &Replies{t: t, conn: conn, in: bufio.NewScanner(conn)}
	r.in.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return r
}

func (r *Replies) send(lines string) {
	r.t.Helper()
	if _, err := r.conn.Write([]byte(lines)); err != nil {
		r.t.Fatal(err)
	}
}

// bye reads the QUIT reply and checks the server then hangs up.
func (r *Replies) bye() {
	r.t.Helper()
	if line := r.Line("BYE"); line != "BYE" {
		r.t.Fatalf("got %q, want BYE", line)
	}
	if r.in.Scan() {
		r.t.Fatalf("unexpected line after BYE: %q", r.in.Text())
	}
	if err := r.in.Err(); err != nil {
		r.t.Fatalf("connection did not close after BYE: %v", err)
	}
}
