package crs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"clare/internal/core"
	"clare/internal/term"
)

// fuzzSrv is the shared server behind FuzzWireParse. Fuzz executions in
// one worker process are sequential, but the mutex keeps the harness
// honest if that ever changes (and across seed-corpus replays).
var fuzzSrv struct {
	once sync.Once
	mu   sync.Mutex
	s    *Server
	err  error
}

func fuzzServer() (*Server, error) {
	fuzzSrv.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Boards = 1
		r, err := core.New(cfg)
		if err != nil {
			fuzzSrv.err = err
			return
		}
		s := NewServer(r)
		clauses := make([]core.ClauseTerm, 8)
		for i := range clauses {
			clauses[i] = core.ClauseTerm{Head: term.New("m", term.Int(i), term.Atom("x"))}
		}
		if err := s.Load("fuzz", clauses); err != nil {
			fuzzSrv.err = err
			return
		}
		fuzzSrv.s = s
	})
	return fuzzSrv.s, fuzzSrv.err
}

// wireReplyOK reports whether one server output line is well-formed:
// every reply the protocol defines starts with one of these tokens.
func wireReplyOK(line string) bool {
	tok, _, _ := strings.Cut(line, " ")
	switch tok {
	case "OK", "BYE", "ERR", "CANDIDATES", "STATS", "S", "C", "LOG", "R",
		"EXPLAIN", "E", "TRACE", "FLIGHT", "F", "SLOWLOG", "Q":
		return true
	}
	return false
}

// FuzzWireParse throws arbitrary bytes at the CRS wire handler. The
// invariants: the handler never panics, never hangs (malformed input is
// answered with ERR and the loop continues or the connection drops),
// and every line it writes back is a well-formed protocol reply.
func FuzzWireParse(f *testing.F) {
	seeds := []string{
		"HELLO\n",
		"HELLO\nRETRIEVE fs2 m(1, X).\nQUIT\n",
		"RETRIEVE auto m(X, Y).\n",
		"RETRIEVE software m(0, x).\nRETRIEVE fs1 m(1, x).\nRETRIEVE fs1+fs2 m(2, x).\n",
		"RETRIEVE bogusmode m(1, X).\n",
		"RETRIEVE fs2\n",
		"RETRIEVE fs2 )(!!bad term.\n",
		"RETRIEVE fs2 unknown_pred(X).\n",
		"BEGIN\nASSERT m(9, y).\nCOMMIT\nQUIT\n",
		"BEGIN\nASSERT m(9, y).\nABORT\n",
		"WRITE assert m(9, y).\nWRITE retract m(9, y).\n",
		"WRITE frob m(9, y).\nWRITE assert\nWRITE\n",
		"SYNC 0 1\nSYNC 0 0\nQUIT\n",
		"SYNC\nSYNC x y\nSYNC 0 -1\nSYNC 0 99999999999999999999\n",
		"REPL 1 assert fuzz m(7, z)\nREPL 1 assert fuzz m(7, z)\n",
		"REPL 0 assert fuzz m(7, z)\nREPL x y\nREPL 2 frob fuzz m(7, z)\nREPL\n",
		"ASSERT m(1, x).\n",
		"COMMIT\nABORT\nBEGIN\nBEGIN\n",
		"STATS\nSTATS\n",
		"EXPLAIN auto m(1, X).\nSTATS\n",
		"EXPLAIN fs2 m(1, X).\n",
		"EXPLAIN fs1+fs2 m(X, Y).\nEXPLAIN software m(0, x).\n",
		"EXPLAIN bogusmode m(1, X).\nEXPLAIN\nEXPLAIN auto\n",
		"stats\nhello\nquit\n",
		"QUIT\nHELLO\n",
		"\n\n   \n\t\n",
		"NOSUCHCOMMAND with args\n",
		"ASSERT m(1, x) :- true.\n",
		"RETRIEVE fs2 m([a, b | T], X).\n",
		"\x00\xff\xfe garbage \x01\n",
		strings.Repeat("A", 70*1024) + "\n", // crosses the scanner's initial buffer
		// Pipelined scripts: many verbs in one write, error replies
		// between good ones, each answered in order.
		"HELLO\nRETRIEVE fs1+fs2 m(1, X).\nRETRIEVE warp m(1, X).\nRETRIEVE fs1 m(((.\n" +
			"FLIGHT x\nEXPLAIN fs2 m(1, X).\nSTATS\nQUIT\n",
		"STATS\nRETRIEVE fs2 m(X, x).\nBEGIN\nASSERT m(8, q).\nCOMMIT\n" +
			"RETRIEVE software m(8, Y).\nSYNC 0 0\nFLIGHT\nSLOWLOG 2\n",
		"RETRIEVE fs2 m(1, X). trace=00000000000000ab:0000000000000001\n" +
			"EXPLAIN fs2 m(1, X). trace=zz\nFLIGHT 2\nSLOWLOG x\nRETRIEVE auto m(2, x).\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := fuzzServer()
		if err != nil {
			t.Fatal(err)
		}
		fuzzSrv.mu.Lock()
		defer fuzzSrv.mu.Unlock()

		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		// Drain every reply concurrently: net.Pipe is unbuffered, so the
		// handler's writes block until read. EOF arrives when the handler
		// returns and closes its end.
		replies := make(chan []byte, 1)
		go func() {
			var buf bytes.Buffer
			_, _ = io.Copy(&buf, client)
			replies <- buf.Bytes()
		}()

		_ = client.SetWriteDeadline(time.Now().Add(5 * time.Second))
		_, _ = client.Write(data)
		// Terminate cleanly whatever state the input left the handler in;
		// write errors just mean it already hung up.
		_, _ = client.Write([]byte("\nQUIT\n"))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("wire handler hung on %d-byte input %s", len(data), truncate(data, 128))
		}
		out := <-replies
		client.Close()

		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 0, 64*1024), MaxWireLine+64)
		for sc.Scan() {
			if line := sc.Text(); !wireReplyOK(line) {
				t.Fatalf("malformed reply line %s for input %s", truncate([]byte(line), 128), truncate(data, 128))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning replies: %v", err)
		}
	})
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return fmt.Sprintf("%q…", b[:n])
	}
	return fmt.Sprintf("%q", b)
}
