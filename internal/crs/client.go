package crs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"clare/internal/core"
	"clare/internal/telemetry"
)

// maxPrealloc caps the capacity a reply header's count may reserve up
// front; a longer reply grows past it as its lines arrive.
const maxPrealloc = 1024

// DefaultTimeout bounds the dial and each wire read/write when Dial is
// used. Generous: a retrieval behind it may queue for a board.
const DefaultTimeout = 30 * time.Second

// Client retry defaults: transport failures on idempotent requests are
// retried over a fresh connection up to DefaultMaxRetries times, with
// DefaultRetryBackoff doubling between attempts.
const (
	DefaultMaxRetries   = 2
	DefaultRetryBackoff = 50 * time.Millisecond
)

// ServerError is a protocol-level "ERR <message>" reply: the server
// received the request and rejected it. It is never retried — retrying
// a rejected request would just be rejected again (or worse, applied
// twice after a transient rejection).
type ServerError struct {
	// Msg is the server's message after the ERR prefix.
	Msg string
}

func (e *ServerError) Error() string { return "crs server: " + e.Msg }

// Client is a CRS wire-protocol client. Idempotent requests (RETRIEVE,
// STATS) survive transport failures: the client reconnects with
// exponential backoff and replays the request, up to MaxRetries times.
// Protocol rejections (ServerError) and transaction commands are never
// retried — a reconnect opens a fresh session, so any staged
// transaction state is gone and the caller must re-run the transaction.
type Client struct {
	// addr is the dialed address, kept for reconnects.
	addr string
	conn net.Conn
	in   *bufio.Scanner
	out  *bufio.Writer
	// timeout bounds each wire read and write (0 = no deadline).
	timeout time.Duration
	// callTimeout, when > 0, overrides timeout for the duration of one
	// call (RetrieveWithTimeout/StatsWithTimeout) — including any dial
	// performed by a transparent reconnect within that call.
	callTimeout time.Duration
	// inTx is set between a successful BEGIN and the next COMMIT/ABORT;
	// while set, automatic reconnect-and-retry is disabled.
	inTx bool
	// SessionID is assigned by HELLO (and refreshed on reconnect).
	SessionID string

	// MaxRetries bounds transparent reconnect+retry attempts per
	// idempotent request (0 uses DefaultMaxRetries; negative disables).
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubled per
	// attempt (0 uses DefaultRetryBackoff).
	RetryBackoff time.Duration
}

// Dial connects to a CRS server with DefaultTimeout and performs the
// HELLO handshake.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultTimeout)
}

// DialTimeout is Dial with an explicit per-operation timeout. The
// timeout bounds the TCP connect and every subsequent wire read and
// write (each operation gets a fresh deadline); <= 0 disables
// deadlines entirely.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection and performs the HELLO
// handshake, replacing any previous connection state.
func (c *Client) connect() error {
	dialTO := c.effTimeout()
	if dialTO < 0 {
		dialTO = 0
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTO)
	if err != nil {
		return err
	}
	c.conn = conn
	c.in = bufio.NewScanner(conn)
	c.in.Buffer(make([]byte, 0, 64*1024), MaxWireLine)
	c.out = bufio.NewWriter(conn)
	line, err := c.roundTrip("HELLO")
	if err != nil {
		conn.Close()
		return err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "OK" {
		conn.Close()
		return fmt.Errorf("crs client: bad handshake %q", line)
	}
	c.SessionID = fields[2]
	return nil
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

func (c *Client) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return c.RetryBackoff
}

// retryIdempotent runs op, transparently reconnecting and replaying it
// on transport failures. ServerError replies pass through immediately,
// and nothing is retried inside a transaction (the reconnect would
// silently discard the staged state).
func (c *Client) retryIdempotent(op func() error) error {
	backoff := c.retryBackoff()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			c.conn.Close()
			if err := c.connect(); err != nil {
				lastErr = err
				if attempt >= c.maxRetries() {
					return lastErr
				}
				continue
			}
		}
		err := op()
		if err == nil {
			return nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return err
		}
		lastErr = err
		if c.inTx || attempt >= c.maxRetries() {
			return lastErr
		}
	}
}

// SetTimeout adjusts the per-operation deadline for subsequent calls
// (<= 0 disables deadlines).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// effTimeout is the deadline in force for the current operation: the
// per-call override when one is active, the global timeout otherwise.
func (c *Client) effTimeout() time.Duration {
	if c.callTimeout > 0 {
		return c.callTimeout
	}
	return c.timeout
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	_, _ = c.roundTrip("QUIT")
	return c.conn.Close()
}

// Sever drops the connection without the QUIT handshake. Close waits
// for the server's goodbye, which deadlocks a caller cancelling an
// in-flight request — the goodbye queues behind the very reply being
// abandoned. Sever fails the pending read immediately instead; the
// connection is unusable afterwards.
func (c *Client) Sever() error { return c.conn.Close() }

// send writes one request line, the concatenation of parts, and
// flushes it.
func (c *Client) send(parts ...string) error {
	if to := c.effTimeout(); to > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(to)); err != nil {
			return err
		}
	}
	for _, p := range parts {
		c.out.WriteString(p)
	}
	c.out.WriteByte('\n')
	return c.out.Flush()
}

func (c *Client) recv() (string, error) {
	if to := c.effTimeout(); to > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(to)); err != nil {
			return "", err
		}
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("crs client: connection closed")
	}
	return c.in.Text(), nil
}

func (c *Client) roundTrip(parts ...string) (string, error) {
	if err := c.send(parts...); err != nil {
		return "", err
	}
	resp, err := c.recv()
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(resp, "ERR ") {
		return "", &ServerError{Msg: strings.TrimPrefix(resp, "ERR ")}
	}
	return resp, nil
}

// replyCount parses a "<verb> <n>" reply header; n must not be
// negative.
func replyCount(line, verb string) (int, bool) {
	rest, ok := strings.CutPrefix(line, verb)
	if !ok || !strings.HasPrefix(rest, " ") {
		return 0, false
	}
	n, err := strconv.Atoi(rest[1:])
	return n, err == nil && n >= 0
}

// RetrieveResult is a client-side view of one retrieval.
type RetrieveResult struct {
	// Clauses are the candidate clauses in source form (with final '.').
	Clauses []string
	// Stats is the raw STATS line.
	Stats string
	// Spans is the server-side span subtree, decoded from the TRACE
	// reply line. Populated only for traced calls (RetrieveTraced with a
	// non-nil context) against a server with a tracer.
	Spans []telemetry.WireSpan
}

// RetrieveWithTimeout is Retrieve under a per-call deadline override:
// every wire read/write (and any reconnect dial) of this one call is
// bounded by d instead of the client's global timeout. d <= 0 leaves
// the global timeout in force. The cluster router uses this to hold a
// per-shard budget tighter than the connection-wide SetTimeout.
func (c *Client) RetrieveWithTimeout(mode, goal string, d time.Duration) (*RetrieveResult, error) {
	return c.RetrieveTracedWithTimeout(mode, goal, nil, d)
}

// RetrieveTracedWithTimeout is RetrieveTraced under a per-call deadline
// override (see RetrieveWithTimeout).
func (c *Client) RetrieveTracedWithTimeout(mode, goal string, tc *telemetry.TraceContext, d time.Duration) (*RetrieveResult, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.RetrieveTraced(mode, goal, tc)
}

// Retrieve runs a retrieval. mode is one of software|fs1|fs2|fs1+fs2|auto;
// goal is Edinburgh source without the final '.'. Retrieve is
// idempotent: on a transport failure the client reconnects with backoff
// and replays the request (see Client).
func (c *Client) Retrieve(mode, goal string) (*RetrieveResult, error) {
	return c.RetrieveTraced(mode, goal, nil)
}

// RetrieveTraced is Retrieve carrying a trace context: the request line
// gains the " trace=<id>:<span>" header, and the server's span subtree
// comes back decoded in RetrieveResult.Spans for the caller to graft
// under its own span. Only send a context to servers that understand
// the header (a server predating it rejects the goal). tc nil is plain
// Retrieve.
func (c *Client) RetrieveTraced(mode, goal string, tc *telemetry.TraceContext) (*RetrieveResult, error) {
	var res *RetrieveResult
	err := c.retryIdempotent(func() (err error) {
		res, err = c.retrieveOnce(mode, goal, tc)
		return err
	})
	return res, err
}

func (c *Client) retrieveOnce(mode, goal string, tc *telemetry.TraceContext) (*RetrieveResult, error) {
	first, err := c.roundTrip("RETRIEVE ", mode, " ", goal, ".", traceHeader(tc))
	if err != nil {
		return nil, err
	}
	n, ok := replyCount(first, "CANDIDATES")
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected reply %q", first)
	}
	res := &RetrieveResult{}
	if n > 0 {
		res.Clauses = make([]string, 0, min(n, maxPrealloc))
	}
	for i := 0; i < n; i++ {
		line, err := c.recv()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, "C ") {
			return nil, fmt.Errorf("crs client: unexpected candidate line %q", line)
		}
		res.Clauses = append(res.Clauses, strings.TrimPrefix(line, "C "))
	}
	stats, err := c.recv()
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	if tc != nil {
		if res.Spans, err = c.recvTrace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceHeader renders the request-line suffix for a trace context ("",
// or " trace=<id>:<span>").
func traceHeader(tc *telemetry.TraceContext) string {
	if tc == nil {
		return ""
	}
	return " trace=" + tc.String()
}

// recvTrace reads and decodes the TRACE reply line a traced call ends
// with ("-" decodes to no spans).
func (c *Client) recvTrace() ([]telemetry.WireSpan, error) {
	line, err := c.recv()
	if err != nil {
		return nil, err
	}
	tok, ok := strings.CutPrefix(line, "TRACE ")
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected trace line %q", line)
	}
	if tok == "-" {
		return nil, nil
	}
	spans, err := telemetry.DecodeWireSpans(tok)
	if err != nil {
		return nil, fmt.Errorf("crs client: %w", err)
	}
	return spans, nil
}

// ExplainResult is a client-side view of one EXPLAIN call.
type ExplainResult struct {
	// Entries is the profile in the server's (pipeline) order.
	Entries []core.ExplainEntry
	// Spans is the server-side span subtree (traced calls only).
	Spans []telemetry.WireSpan
}

// Get returns the value for key ("" when absent).
func (e *ExplainResult) Get(key string) string {
	for _, kv := range e.Entries {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// Explain profiles one retrieval (the EXPLAIN wire command): candidate
// counts and rejection ratios per filter rung plus per-stage times.
// Idempotent and retried like Retrieve.
func (c *Client) Explain(mode, goal string) (*ExplainResult, error) {
	return c.ExplainTraced(mode, goal, nil)
}

// ExplainTraced is Explain carrying a trace context (see RetrieveTraced).
func (c *Client) ExplainTraced(mode, goal string, tc *telemetry.TraceContext) (*ExplainResult, error) {
	var res *ExplainResult
	err := c.retryIdempotent(func() (err error) {
		res, err = c.explainOnce(mode, goal, tc)
		return err
	})
	return res, err
}

// ExplainTracedWithTimeout is ExplainTraced under a per-call deadline
// override (see RetrieveWithTimeout).
func (c *Client) ExplainTracedWithTimeout(mode, goal string, tc *telemetry.TraceContext, d time.Duration) (*ExplainResult, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.ExplainTraced(mode, goal, tc)
}

func (c *Client) explainOnce(mode, goal string, tc *telemetry.TraceContext) (*ExplainResult, error) {
	first, err := c.roundTrip("EXPLAIN ", mode, " ", goal, ".", traceHeader(tc))
	if err != nil {
		return nil, err
	}
	n, ok := replyCount(first, "EXPLAIN")
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected explain reply %q", first)
	}
	res := &ExplainResult{}
	for i := 0; i < n; i++ {
		line, err := c.recv()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "E" {
			return nil, fmt.Errorf("crs client: unexpected explain line %q", line)
		}
		res.Entries = append(res.Entries, core.ExplainEntry{Key: fields[1], Value: fields[2]})
	}
	if tc != nil {
		if res.Spans, err = c.recvTrace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StatsWithTimeout is Stats under a per-call deadline override, with
// the same semantics as RetrieveWithTimeout.
func (c *Client) StatsWithTimeout(d time.Duration) (map[string]int64, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.Stats()
}

// Stats asks the server for its service counters: served.<mode>,
// sessions, boards, qcache.{hits,misses,entries}, board health
// (boards.*) and the fault-tolerance tallies (see the wire-protocol
// comment in net.go). Stats is idempotent and retried like Retrieve.
func (c *Client) Stats() (map[string]int64, error) {
	var out map[string]int64
	err := c.retryIdempotent(func() (err error) {
		out, err = c.statsOnce()
		return err
	})
	return out, err
}

func (c *Client) statsOnce() (map[string]int64, error) {
	first, err := c.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	n, ok := replyCount(first, "STATS")
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected stats reply %q", first)
	}
	out := make(map[string]int64, min(n, maxPrealloc))
	for i := 0; i < n; i++ {
		line, err := c.recv()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "S" {
			return nil, fmt.Errorf("crs client: unexpected stats line %q", line)
		}
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("crs client: bad stats value in %q", line)
		}
		out[fields[1]] = v
	}
	return out, nil
}

// Flight pulls the last n flight-recorder records (n <= 0 = the whole
// ring), oldest first. Idempotent and retried like Stats.
func (c *Client) Flight(n int) ([]telemetry.FlightRecord, error) {
	var out []telemetry.FlightRecord
	err := c.retryIdempotent(func() (err error) {
		out, err = flightOnce(c, n)
		return err
	})
	return out, err
}

// SlowTail pulls the last n slow-query captures (n <= 0 = everything
// the log holds), oldest first. Idempotent and retried like Stats.
func (c *Client) SlowTail(n int) ([]telemetry.SlowCapture, error) {
	var out []telemetry.SlowCapture
	err := c.retryIdempotent(func() (err error) {
		out, err = slowTailOnce(c, n)
		return err
	})
	return out, err
}

func flightOnce(c *Client, n int) ([]telemetry.FlightRecord, error) {
	return dumpOnce[telemetry.FlightRecord](c, "FLIGHT", "F", n)
}

func slowTailOnce(c *Client, n int) ([]telemetry.SlowCapture, error) {
	return dumpOnce[telemetry.SlowCapture](c, "SLOWLOG", "Q", n)
}

// dumpOnce runs one "<verb> [n]" → "<verb> <k>" + k "<tag> <json>"
// exchange, decoding each body line into T.
func dumpOnce[T any](c *Client, verb, tag string, n int) ([]T, error) {
	var first string
	var err error
	if n > 0 {
		first, err = c.roundTrip(verb, " ", strconv.Itoa(n))
	} else {
		first, err = c.roundTrip(verb)
	}
	if err != nil {
		return nil, err
	}
	k, ok := replyCount(first, verb)
	if !ok {
		return nil, fmt.Errorf("crs client: unexpected %s reply %q", verb, first)
	}
	out := make([]T, 0, min(k, maxPrealloc))
	for i := 0; i < k; i++ {
		line, err := c.recv()
		if err != nil {
			return nil, err
		}
		body, ok := strings.CutPrefix(line, tag+" ")
		if !ok {
			return nil, fmt.Errorf("crs client: unexpected %s line %q", verb, line)
		}
		var rec T
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			return nil, fmt.Errorf("crs client: bad %s json: %v", verb, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Begin starts a transaction. Until the matching Commit or Abort, the
// client suspends automatic reconnect-and-retry: staged transaction
// state lives in the server session, which a reconnect would discard.
func (c *Client) Begin() error {
	if err := c.simple("BEGIN"); err != nil {
		return err
	}
	c.inTx = true
	return nil
}

// Assert stages a clause (source without final '.').
func (c *Client) Assert(clause string) error {
	return c.simple("ASSERT ", clause, ".")
}

// Commit commits the transaction.
func (c *Client) Commit() error {
	err := c.simple("COMMIT")
	c.inTx = false
	return err
}

// Abort aborts the transaction.
func (c *Client) Abort() error {
	err := c.simple("ABORT")
	c.inTx = false
	return err
}

func (c *Client) simple(parts ...string) error {
	resp, err := c.roundTrip(parts...)
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("crs client: unexpected reply %q", resp)
	}
	return nil
}
