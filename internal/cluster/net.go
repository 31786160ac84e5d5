package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"clare/internal/crs"
	"clare/internal/telemetry"
)

// Server is the cluster's wire front-end: it speaks the existing CRS
// protocol unchanged (HELLO/RETRIEVE/WRITE/SYNC/STATS/BEGIN/ASSERT/
// COMMIT/ABORT/QUIT), so crsctl and crs.Client work against a cluster
// transparently. RETRIEVE and STATS scatter-gather through the Router;
// WRITE and SYNC route to the owning shard's primary; transactions pass
// through to the primary of the shard owning the first asserted
// predicate (a transaction may touch exactly one shard — cross-shard
// transactions are rejected, there is no distributed commit).
//
// The diagnosis verbs follow the same split: FLIGHT dumps the ROUTER'S
// own flight recorder (the cluster-level view — routing decisions,
// hedges, merged funnels), while SLOWLOG scatter-gathers the backends'
// slow-query captures merged by capture time, because the EXPLAIN
// re-run that fills a capture only ever happens where the clauses live.
type Server struct {
	router *Router

	nextSess atomic.Int64

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
	draining bool
}

// NewServer wraps a router in the wire front-end.
func NewServer(r *Router) *Server {
	return &Server{router: r, conns: make(map[net.Conn]struct{})}
}

// Router exposes the underlying scatter-gather router.
func (s *Server) Router() *Router { return s.router }

// Serve accepts connections on l until it closes, one handler per
// connection — the same accept loop contract as crs.Server.Serve.
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

// Shutdown drains the front-end: new connections are refused and
// Shutdown returns when in-flight handlers finish, or force-closes the
// stragglers when ctx expires first.
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

// routedTx is one connection's pass-through transaction: a backend
// client pinned to the shard group that owns the first asserted
// predicate, with BEGIN deferred until that first ASSERT names it.
type routedTx struct {
	shard  int
	node   *node
	client *crs.Client
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sessID := s.nextSess.Add(1)
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64*1024), crs.MaxWireLine)
	out := bufio.NewWriter(conn)
	reply := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	}

	var tx *routedTx
	// dropTx abandons a pass-through transaction whose backend leg
	// failed: closing the client closes its server session, which aborts
	// the staged state and releases the predicate locks.
	dropTx := func() {
		if tx != nil && tx.client != nil {
			tx.node.discard(tx.client)
		}
		tx = nil
	}
	defer dropTx()

	for {
		// One flush per reply, as on the crs server: before blocking
		// for the next request.
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
			reply("OK crs %d", sessID)
		case "QUIT":
			reply("BYE")
			out.Flush()
			return
		case "STATS":
			kv, err := s.router.Stats()
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			keys := make([]string, 0, len(kv))
			for k := range kv {
				keys = append(keys, k)
			}
			sort.Strings(keys) // deterministic wire order, cluster-wide
			crs.WriteCount(out, "STATS ", int64(len(keys)))
			for _, k := range keys {
				out.WriteString("S ")
				out.WriteString(k)
				crs.WriteCount(out, " ", kv[k])
			}
		case "FLIGHT":
			n, err := optionalCount(rest)
			if err != nil {
				reply("ERR usage: FLIGHT [n]")
				continue
			}
			crs.WriteDump(out, "FLIGHT", "F", s.router.Flight().Snapshot(n))
		case "SLOWLOG":
			n, err := optionalCount(rest)
			if err != nil {
				reply("ERR usage: SLOWLOG [n]")
				continue
			}
			caps, err := s.router.SlowTail(n)
			if err != nil {
				reply("ERR %v", errText(err))
				continue
			}
			crs.WriteDump(out, "SLOWLOG", "Q", caps)
		case "RETRIEVE":
			modeWord, goalText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: RETRIEVE <mode> <goal>")
				continue
			}
			if _, err := crs.ParseMode(modeWord); err != nil {
				reply("ERR %v", err)
				continue
			}
			goalText, tc := crs.CutTraceHeader(goalText)
			res, err := s.router.RetrieveTraced(modeWord, strings.TrimSuffix(goalText, "."), tc)
			if err != nil {
				reply("ERR %v", errText(err))
				continue
			}
			crs.WriteCount(out, "CANDIDATES ", int64(len(res.Clauses)))
			for _, cl := range res.Clauses {
				out.WriteString("C ")
				out.WriteString(cl)
				out.WriteByte('\n')
			}
			out.WriteString(res.Stats)
			out.WriteByte('\n')
			if tc != nil {
				reply("TRACE %s", spanToken(res.Spans))
			}
		case "EXPLAIN":
			modeWord, goalText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: EXPLAIN <mode> <goal>")
				continue
			}
			if _, err := crs.ParseMode(modeWord); err != nil {
				reply("ERR %v", err)
				continue
			}
			goalText, tc := crs.CutTraceHeader(goalText)
			res, err := s.router.ExplainTraced(modeWord, strings.TrimSuffix(goalText, "."), tc)
			if err != nil {
				reply("ERR %v", errText(err))
				continue
			}
			crs.WriteExplain(out, res.Entries)
			if tc != nil {
				reply("TRACE %s", spanToken(res.Spans))
			}
		case "WRITE":
			opWord, clauseText, ok := strings.Cut(rest, " ")
			if !ok {
				reply("ERR usage: WRITE assert|retract <clause>.")
				continue
			}
			seq, err := s.router.Write(opWord, strings.TrimSuffix(strings.TrimSpace(clauseText), "."))
			if err != nil {
				reply("ERR %v", errText(err))
				continue
			}
			reply("OK %d", seq)
		case "SYNC":
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				reply("ERR usage: SYNC <shard> <from-seq>")
				continue
			}
			shard, err1 := strconv.Atoi(fields[0])
			from, err2 := strconv.ParseUint(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				reply("ERR bad SYNC arguments %q", rest)
				continue
			}
			recs, last, err := s.router.SyncLog(shard, from)
			if err != nil {
				reply("ERR %v", errText(err))
				continue
			}
			fmt.Fprintf(out, "LOG %d %d\n", len(recs), last)
			for _, rec := range recs {
				out.WriteString("R ")
				out.WriteString(rec.WireText())
				out.WriteByte('\n')
			}
		case "BEGIN":
			if tx != nil {
				reply("ERR crs: transaction already in progress")
				continue
			}
			tx = &routedTx{}
			reply("OK")
		case "ASSERT":
			if tx == nil {
				reply("ERR crs: no transaction in progress")
				continue
			}
			clause := strings.TrimSuffix(rest, ".")
			head := clause
			if h, _, ok := strings.Cut(clause, ":-"); ok {
				head = h
			}
			pi, err := GoalIndicator(strings.TrimSpace(head))
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			shard := ShardOf(pi, s.router.Shards())
			if tx.client == nil {
				// First ASSERT pins the transaction to its shard's
				// PRIMARY: a transaction is a write, and only the primary
				// sequences writes into the shard's log (a replica would
				// reject BEGIN as read-only anyway). A stale pooled
				// connection gets one fresh-dial retry; beyond that the
				// transaction fails — there is no write failover.
				p := s.router.groups[shard].primary()
				var c *crs.Client
				var lastErr error
				for attempt := 0; attempt < 2 && c == nil; attempt++ {
					cc, pooled, err := p.get(s.router.cfg)
					if err != nil {
						p.strike(s.router)
						lastErr = err
						break
					}
					if err := cc.Begin(); err != nil {
						var se *crs.ServerError
						if errors.As(err, &se) {
							p.put(cc, s.router.cfg)
							lastErr = err
							break
						}
						p.discard(cc)
						lastErr = err
						if !pooled {
							p.strike(s.router)
							break
						}
						continue
					}
					p.clear(s.router)
					c = cc
				}
				if c == nil {
					reply("ERR %v", errText(lastErr))
					continue
				}
				tx.client, tx.node, tx.shard = c, p, shard
			} else if shard != tx.shard {
				reply("ERR cluster: cross-shard transaction (%s is on shard %d, transaction pinned to %d)",
					pi, shard, tx.shard)
				continue
			}
			if err := tx.client.Assert(clause); err != nil {
				var se *crs.ServerError
				if errors.As(err, &se) {
					reply("ERR %s", se.Msg)
				} else {
					// Transport failure mid-transaction: the staged state
					// is gone with the session; the client must re-run.
					dropTx()
					reply("ERR cluster: backend lost mid-transaction: %v", err)
				}
				continue
			}
			reply("OK")
		case "COMMIT", "ABORT":
			if tx == nil {
				reply("ERR crs: no transaction in progress")
				continue
			}
			if tx.client == nil { // empty transaction: nothing staged anywhere
				tx = nil
				reply("OK")
				continue
			}
			var err error
			if strings.ToUpper(cmd) == "COMMIT" {
				err = tx.client.Commit()
			} else {
				err = tx.client.Abort()
			}
			if err != nil {
				var se *crs.ServerError
				if errors.As(err, &se) {
					tx.node.put(tx.client, s.router.cfg)
					tx = nil
					reply("ERR %s", se.Msg)
				} else {
					dropTx()
					reply("ERR cluster: backend lost mid-transaction: %v", err)
				}
				continue
			}
			committed := strings.ToUpper(cmd) == "COMMIT"
			tx.node.put(tx.client, s.router.cfg)
			if committed {
				// The committed seqs are the primary's business; waking
				// the shard's shippers ships them without waiting out
				// the idle interval.
				s.router.NotifyShard(tx.shard)
			}
			tx = nil
			reply("OK")
		default:
			reply("ERR unknown command %q", cmd)
		}
	}
	if err := in.Err(); errors.Is(err, bufio.ErrTooLong) {
		reply("ERR line too long (max %d bytes)", crs.MaxWireLine)
		out.Flush()
	}
}

// spanToken serializes a stitched span tree for the TRACE reply line;
// "-" stands for "no trace recorded" (the router has no tracer).
func spanToken(spans []telemetry.WireSpan) string {
	if tok := telemetry.EncodeWireSpans(spans); tok != "" {
		return tok
	}
	return "-"
}

// optionalCount parses a FLIGHT/SLOWLOG verb's optional count argument
// (absent means 0 = "everything"), mirroring the crs server's rule.
func optionalCount(rest string) (int, error) {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("cluster: bad count %q", rest)
	}
	return v, nil
}

// errText strips the crs client's "crs server: " prefix so an ERR
// relayed through the router reads like the backend's original reply.
func errText(err error) string {
	if err == nil {
		return "cluster: no reachable replica"
	}
	var se *crs.ServerError
	if errors.As(err, &se) {
		return se.Msg
	}
	return err.Error()
}
