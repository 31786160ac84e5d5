package crs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/wal"
)

// Wire protocol (text, line-oriented; terms in Edinburgh syntax):
//
//	C: HELLO                    S: OK crs <session-id>
//	C: RETRIEVE <mode> <goal>   S: CANDIDATES <n>
//	                               <n> clause lines, each "C <clause>."
//	                               STATS mode=<m> total=<t> fs1=<a> fs2=<b>
//	C: EXPLAIN <mode> <goal>    S: EXPLAIN <n>
//	                               <n> lines, each "E <key> <value>"
//	C: BEGIN                    S: OK
//	C: ASSERT <clause>          S: OK
//	C: COMMIT                   S: OK
//	C: ABORT                    S: OK
//	C: WRITE assert <clause>    S: OK <seq>
//	C: WRITE retract <clause>   S: OK <seq>
//	C: SYNC <shard> <from-seq>  S: LOG <n> <last-seq>
//	                               <n> lines, each "R <seq> <op> <module> <clause>"
//	C: REPL <seq> <op> <module> <clause>
//	                            S: OK <applied-seq>
//	C: STATS                    S: STATS <n>
//	                               <n> lines, each "S <key> <value>"
//	C: FLIGHT [<n>]             S: FLIGHT <k>
//	                               <k> lines, each "F <json>" — the last k
//	                               flight-recorder records, oldest first
//	C: SLOWLOG [<n>]            S: SLOWLOG <k>
//	                               <k> lines, each "Q <json>" — the last k
//	                               slow-query captures, oldest first
//	C: QUIT                     S: BYE
//
// mode ∈ software|fs1|fs2|fs1+fs2|auto. Errors answer "ERR <message>".
// STATS keys are served.<mode>, sessions, boards, qcache.{hits,misses,
// entries}, the board-health gauges boards.{free,leased,tripped,trips,
// readmits}, the fault-tolerance tallies degraded, retries and faults,
// engine.native (1 when the server runs the native vectorized
// engine, 0 for the cycle-accurate simulation), the durable write
// path's wal.* keys (wal.{enabled,seq,applied,segments,appends,fsyncs,
// faults,replicated,readonly}), the diagnosis layer's flight.{size,
// recorded} and slow.{captured,suppressed}, and — when an SLO is
// configured — the slo.* family (slo.enabled, the objective as
// slo.p99.us / slo.err.permille, lifetime slo.{requests,slow,errors,
// breaches,breach.active}, and per sliding window
// slo.window.{short,long}.{requests,slow,errors} with the burn rates
// scaled ×1000 as slo.burn.{short,long}.milli); values are decimal
// integers. FLIGHT and SLOWLOG bodies are single-line JSON objects
// (see telemetry.FlightRecord and telemetry.SlowCapture); with no
// recorder or log attached both answer an empty listing.
//
// Write path: ASSERT stages into a BEGIN…COMMIT transaction exactly as
// before; WRITE is the autocommit form — one clause logged, applied and
// (per the fsync policy) durable before the assigned log sequence
// number returns. SYNC streams the write-ahead log's suffix from
// from-seq (the shard token is informational on a single-shard server)
// and REPL lands one primary-sequenced record on a replica, answering
// the replica's applied watermark: a duplicate acks without
// re-applying, a gap acks the current watermark without applying so the
// shipper rewinds. Record clauses are Edinburgh source without the
// final '.'.
//
// Trace context: a RETRIEVE or EXPLAIN goal may be followed by one
// trailing token " trace=<traceid>:<parentspan>" (after the goal's
// terminating '.'). A server that understands it threads the context
// into the retrieval's span tree and appends one extra reply line after
// the trailer:
//
//	TRACE <token>
//
// where token is the retrieval's span subtree serialized by
// telemetry.EncodeWireSpans ("-" when the server has no tracer). The
// header is strictly opt-in: old clients that send no header parse
// against this server exactly as before (no TRACE line is emitted), and
// a caller must not send the header to a server that predates it.
// EXPLAIN keys and values never contain spaces; the key order is the
// filter pipeline's and is part of the wire contract (appending new
// keys is compatible).
//
// Flushing: a server sends each reply, all its lines together, in one
// write — it flushes once, just before it blocks reading the next
// request. Clients may therefore pipeline: several requests written at
// once are answered in order, one complete reply each.

// MaxWireLine bounds one protocol line in either direction. A longer
// line is answered with "ERR line too long" and the connection dropped.
// The cluster front-end, which speaks the same protocol, shares it.
const MaxWireLine = 4 * 1024 * 1024

// syncBatch caps the records one SYNC reply carries; a follower that
// needs more keeps pulling from its advanced watermark.
const syncBatch = 512

// ParseMode maps a wire-mode word to a search mode; auto returns nil
// (heuristic selection).
func ParseMode(s string) (*core.SearchMode, error) {
	var m core.SearchMode
	switch s {
	case "auto":
		return nil, nil
	case "software":
		m = core.ModeSoftware
	case "fs1":
		m = core.ModeFS1
	case "fs2":
		m = core.ModeFS2
	case "fs1+fs2":
		m = core.ModeFS1FS2
	default:
		return nil, fmt.Errorf("crs: unknown mode %q", s)
	}
	return &m, nil
}

// Serve accepts connections on l until it is closed. Each connection gets
// its own session. Serve returns after the listener closes and all
// connection handlers finish.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			s.handlers.Wait()
			return err
		}
		s.connMu.Lock()
		if s.draining {
			s.connMu.Unlock()
			fmt.Fprintln(conn, "ERR server shutting down")
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.handlers.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: new connections are refused, and Shutdown
// returns once every in-flight handler has finished. If ctx expires
// first, the remaining connections are force-closed (an in-flight
// retrieval still runs to completion; its client sees the connection
// drop) and ctx.Err() is returned. The caller should close its
// listeners first so Serve stops accepting.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.draining = true
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		// A handler panic is exactly the moment the black box must
		// survive the process: snapshot the flight ring, then crash as
		// before.
		if r := recover(); r != nil {
			s.log.Error("wire handler panic", "panic", fmt.Sprint(r))
			if err := s.SnapshotFlight(); err != nil {
				s.log.Error("flight snapshot failed", "error", err.Error())
			}
			panic(r)
		}
	}()
	defer conn.Close()
	sess := s.OpenSession()
	defer sess.Close()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64*1024), MaxWireLine)
	out := bufio.NewWriter(conn)
	reply := func(format string, args ...any) {
		if strings.HasPrefix(format, "ERR") {
			s.met.wireErrs.Inc()
		}
		fmt.Fprintf(out, format+"\n", args...)
	}
	for {
		// The one flush per reply: whatever the last request wrote
		// leaves now, before the handler blocks for the next one.
		out.Flush()
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch strings.ToUpper(cmd) {
		case "HELLO":
			reply("OK crs %d", sess.ID())
		case "QUIT":
			reply("BYE")
			out.Flush()
			return
		case "STATS":
			kv := s.Snapshot().lines()
			WriteCount(out, "STATS ", int64(len(kv)))
			for _, p := range kv {
				out.WriteString("S ")
				out.WriteString(p.Key)
				WriteCount(out, " ", p.Value)
			}
		case "FLIGHT":
			n, err := optionalCount(rest)
			if err != nil {
				reply("ERR usage: FLIGHT [<n>]")
				continue
			}
			WriteDump(out, "FLIGHT", "F", s.flight.Snapshot(n))
		case "SLOWLOG":
			n, err := optionalCount(rest)
			if err != nil {
				reply("ERR usage: SLOWLOG [<n>]")
				continue
			}
			WriteDump(out, "SLOWLOG", "Q", s.slowLog.Tail(n))
		case "BEGIN":
			if err := sess.Begin(); err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK")
			}
		case "COMMIT":
			if err := sess.Commit(); err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK")
			}
		case "ABORT":
			if err := sess.Abort(); err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK")
			}
		case "ASSERT":
			cl, err := parse.Term(strings.TrimSuffix(rest, "."))
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			head, body := splitClause(cl)
			if err := sess.Assert(head, body); err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK")
			}
		case "WRITE":
			opWord, clauseText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: WRITE assert|retract <clause>.")
				continue
			}
			op, err := wal.ParseOp(opWord)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			cl, err := parse.Term(strings.TrimSuffix(clauseText, "."))
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			head, body := splitClause(cl)
			var seq uint64
			if op == wal.OpAssert {
				seq, err = sess.AssertNow(head, body)
			} else {
				seq, err = sess.RetractNow(head, body)
			}
			if err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK %d", seq)
			}
		case "SYNC":
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				reply("ERR usage: SYNC <shard> <from-seq>")
				continue
			}
			from, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				reply("ERR bad from-seq %q", fields[1])
				continue
			}
			recs, last, err := s.LogSuffix(from, syncBatch)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			fmt.Fprintf(out, "LOG %d %d\n", len(recs), last)
			for _, rec := range recs {
				out.WriteString("R ")
				out.WriteString(rec.WireText())
				out.WriteByte('\n')
			}
		case "REPL":
			rec, err := wal.ParseRecordText(rest)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			applied, err := s.ApplyReplicated(rec)
			if err != nil {
				reply("ERR %v", err)
			} else {
				reply("OK %d", applied)
			}
		case "RETRIEVE":
			modeWord, goalText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: RETRIEVE <mode> <goal>")
				continue
			}
			mode, err := ParseMode(modeWord)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			goalText, tc := CutTraceHeader(goalText)
			goal, err := parse.Term(strings.TrimSuffix(goalText, "."))
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			rt, err := sess.RetrieveTraced(goal, mode, tc)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			heads, bodies, err := rt.DecodeCandidates()
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			WriteCount(out, "CANDIDATES ", int64(len(heads)))
			for i := range heads {
				out.WriteString("C ")
				term.Write(out, heads[i])
				if !term.Equal(bodies[i], term.Atom("true")) {
					out.WriteString(" :- ")
					term.Write(out, bodies[i])
				}
				out.WriteString(".\n")
			}
			b := append(out.AvailableBuffer(), "STATS mode="...)
			b = append(b, rt.Mode.String()...)
			b = strconv.AppendInt(append(b, " total="...), int64(rt.Stats.TotalClauses), 10)
			b = strconv.AppendInt(append(b, " fs1="...), int64(rt.Stats.AfterFS1), 10)
			b = strconv.AppendInt(append(b, " fs2="...), int64(rt.Stats.AfterFS2), 10)
			out.Write(append(b, '\n'))
			if tc != nil {
				reply("TRACE %s", traceToken(rt.Trace()))
			}
		case "EXPLAIN":
			modeWord, goalText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: EXPLAIN <mode> <goal>")
				continue
			}
			mode, err := ParseMode(modeWord)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			goalText, tc := CutTraceHeader(goalText)
			goal, err := parse.Term(strings.TrimSuffix(goalText, "."))
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			p, err := sess.Explain(goal, mode, tc)
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			WriteExplain(out, p.Entries())
			if tc != nil {
				reply("TRACE %s", traceToken(p.Trace))
			}
		default:
			reply("ERR unknown command %q", cmd)
		}
	}
	if err := in.Err(); errors.Is(err, bufio.ErrTooLong) {
		reply("ERR line too long (max %d bytes)", MaxWireLine)
		out.Flush()
	}
}

// WriteCount writes the reply line "<head><n>", such as a CANDIDATES
// header, without fmt. The cluster front-end writes its replies with it
// too.
func WriteCount(out *bufio.Writer, head string, n int64) {
	b := append(out.AvailableBuffer(), head...)
	b = strconv.AppendInt(b, n, 10)
	out.Write(append(b, '\n'))
}

// WriteExplain writes an EXPLAIN reply's header and entry lines.
func WriteExplain(out *bufio.Writer, entries []core.ExplainEntry) {
	WriteCount(out, "EXPLAIN ", int64(len(entries)))
	for _, e := range entries {
		out.WriteString("E ")
		out.WriteString(e.Key)
		out.WriteByte(' ')
		out.WriteString(e.Value)
		out.WriteByte('\n')
	}
}

// WriteDump writes a FLIGHT or SLOWLOG reply: "<verb> <k>", then one
// "<tag> <json>" line per item. An item that does not marshal is
// skipped. The cluster front-end writes its dumps with it too.
func WriteDump[T any](out *bufio.Writer, verb, tag string, items []T) {
	WriteCount(out, verb+" ", int64(len(items)))
	for _, v := range items {
		blob, err := json.Marshal(v)
		if err != nil {
			continue
		}
		out.WriteString(tag)
		out.WriteByte(' ')
		out.Write(blob)
		out.WriteByte('\n')
	}
}

// optionalCount parses the optional non-negative count argument the
// FLIGHT and SLOWLOG verbs take; empty means 0 ("everything").
func optionalCount(rest string) (int, error) {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("crs: bad count %q", rest)
	}
	return v, nil
}

// CutTraceHeader splits an optional trailing trace-context token off a
// goal text: "p(X). trace=<id>:<span>" → ("p(X).", context). Text
// without a well-formed header — including everything an old client can
// send, since the token must follow the goal's terminating '.' — is
// returned unchanged for the goal parser to judge. Exported because the
// cluster front-end speaks the same wire protocol.
func CutTraceHeader(text string) (string, *telemetry.TraceContext) {
	i := strings.LastIndexByte(text, ' ')
	if i < 0 || !strings.HasPrefix(text[i+1:], "trace=") {
		return text, nil
	}
	goal := strings.TrimRight(text[:i], " ")
	if !strings.HasSuffix(goal, ".") {
		return text, nil
	}
	tc, err := telemetry.ParseTraceContext(strings.TrimPrefix(text[i+1:], "trace="))
	if err != nil {
		return text, nil
	}
	return goal, &tc
}

// traceToken serializes a retrieval's span tree for the TRACE reply
// line; "-" stands for "no trace recorded" (the server has no tracer).
func traceToken(t *telemetry.Trace) string {
	if tok := telemetry.EncodeWireSpans(t.Wire(0)); tok != "" {
		return tok
	}
	return "-"
}

func splitClause(t term.Term) (head, body term.Term) {
	if c, ok := term.Deref(t).(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
		return c.Args[0], c.Args[1]
	}
	return t, term.Atom("true")
}
