package crs

import (
	"testing"

	"clare/internal/core"
	"clare/internal/parse"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/wiretest"
)

// wideFacts is the budget tests' predicate: wide(k, i) for i < 24, so
// wide(k, X) answers 24 candidates, and one rule so a body is printed.
func wideFacts() []core.ClauseTerm {
	out := make([]core.ClauseTerm, 24)
	for i := range out {
		out[i] = core.ClauseTerm{Head: term.New("wide", term.Atom("k"), term.Int(int64(i)))}
	}
	return append(out, core.ClauseTerm{
		Head: term.New("wide", term.Atom("k"), term.NewVar("X")),
		Body: term.New(",", term.New("wide", term.Atom("j"), term.NewVar("X")), term.Atom("!")),
	})
}

// newBudgetServer serves wideFacts on the native engine with metrics,
// tracer and flight recorder armed, as the daemons run it.
func newBudgetServer(t *testing.T) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Boards = 1
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(16)
	cfg.Flight = telemetry.NewFlightRecorder(16)
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	s.SetFlight(cfg.Flight, "")
	if err := s.Load("budget", wideFacts()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWireOneWritePerReply: a reply leaves the server in one write,
// however many lines it has — a 25-candidate RETRIEVE, STATS, EXPLAIN
// and FLIGHT alike.
func TestWireOneWritePerReply(t *testing.T) {
	l := wiretest.Listen(t)
	go newBudgetServer(t).Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.OneWrite(t, "RETRIEVE", func() (int, error) {
		res, err := c.Retrieve("fs1+fs2", "wide(k, X)")
		if err != nil {
			return 0, err
		}
		if len(res.Clauses) < 16 {
			t.Fatalf("RETRIEVE answered %d candidates, want >= 16", len(res.Clauses))
		}
		return len(res.Clauses), nil
	})
	l.OneWrite(t, "STATS", func() (int, error) {
		kv, err := c.Stats()
		return len(kv), err
	})
	l.OneWrite(t, "EXPLAIN", func() (int, error) {
		res, err := c.Explain("fs1+fs2", "wide(k, X)")
		if err != nil {
			return 0, err
		}
		return len(res.Entries), nil
	})
	l.OneWrite(t, "FLIGHT", func() (int, error) {
		recs, err := c.Flight(0)
		return len(recs), err
	})
}

// Allocation ceilings: the measured counts (50 and 259 on go1.24, 53
// and 262 under -race) plus slack for the odd runtime allocation. A
// change that adds per-request garbage on these paths fails here first.
const (
	sessionRetrieveAllocs = 55
	wireRoundTripAllocs   = 270
)

// TestSessionRetrieveAllocs pins the session layer's allocations per
// retrieval (a query-cache hit on the native engine, telemetry armed).
func TestSessionRetrieveAllocs(t *testing.T) {
	s := newBudgetServer(t)
	sess := s.OpenSession()
	defer sess.Close()
	goal := parse.MustTerm("wide(k, X)")
	mode := core.ModeFS1FS2
	var err error
	n := testing.AllocsPerRun(200, func() {
		_, err = sess.Retrieve(goal, &mode)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Session.Retrieve: %.1f allocs/op", n)
	if n > sessionRetrieveAllocs {
		t.Fatalf("Session.Retrieve allocates %.1f times per call, ceiling %d", n, sessionRetrieveAllocs)
	}
}

// TestWireRoundTripAllocs pins one loopback crs.Client ↔ crs.Server
// RETRIEVE of 25 candidates: client request and reply parsing, server
// parse, session, candidate decoding and reply encoding together.
func TestWireRoundTripAllocs(t *testing.T) {
	l := wiretest.Listen(t)
	go newBudgetServer(t).Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var res *RetrieveResult
	n := testing.AllocsPerRun(200, func() {
		res, err = c.Retrieve("fs1+fs2", "wide(k, X)")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clauses) != 25 {
		t.Fatalf("round trip answered %d candidates, want 25", len(res.Clauses))
	}
	t.Logf("wire round trip: %.1f allocs/op", n)
	if n > wireRoundTripAllocs {
		t.Fatalf("wire round trip allocates %.1f times per call, ceiling %d", n, wireRoundTripAllocs)
	}
}

// TestWirePipelinedErrors: a good RETRIEVE, a bad mode, an unparsable
// goal, a bad FLIGHT count, EXPLAIN and STATS are each answered
// completely and in order, pipelined in one write with QUIT and one at a
// time — no path through the handler, error branches included, leaves a
// reply unflushed behind a blocking read.
func TestWirePipelinedErrors(t *testing.T) {
	s := newBudgetServer(t)
	l := wiretest.Listen(t)
	go s.Serve(l)
	defer func() {
		// Three ERR replies per pass, two passes.
		if got := s.met.wireErrs.Value(); got != 6 {
			t.Errorf("wire error counter = %d, want 6", got)
		}
	}()
	wiretest.RunScript(t, l.Addr().String(), []wiretest.Step{
		{Req: "RETRIEVE fs1+fs2 wide(k, X).", Check: func(r *wiretest.Replies) {
			if n := r.Block("CANDIDATES", "C"); n != 25 {
				t.Fatalf("RETRIEVE answered %d candidates, want 25", n)
			}
			r.Prefix("STATS mode=fs1+fs2 total=25 ")
		}},
		{Req: "RETRIEVE warp wide(k, X).", Check: func(r *wiretest.Replies) { r.Prefix("ERR crs: unknown mode") }},
		{Req: "RETRIEVE fs1 wide(((.", Check: func(r *wiretest.Replies) { r.Prefix("ERR parse: ") }},
		{Req: "FLIGHT x", Check: func(r *wiretest.Replies) { r.Prefix("ERR usage: FLIGHT") }},
		{Req: "EXPLAIN fs1+fs2 wide(k, X).", Check: func(r *wiretest.Replies) { r.Block("EXPLAIN", "E") }},
		{Req: "STATS", Check: func(r *wiretest.Replies) { r.Block("STATS", "S") }},
	})
}
