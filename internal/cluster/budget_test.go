package cluster

import (
	"testing"

	"clare/internal/crs"
	"clare/internal/telemetry"
	"clare/internal/wiretest"
)

// startCountedFront boots a one-shard cluster holding wide/2 (24 facts)
// behind a front-end whose router keeps a flight recorder.
func startCountedFront(t *testing.T) *wiretest.CountingListener {
	t.Helper()
	tc := startCluster(t, 1, 1, []testPred{facts("wide", 24)})
	r := newTestRouter(t, tc.addrs, func(c *Config) { c.Flight = telemetry.NewFlightRecorder(16) })
	l := wiretest.Listen(t)
	go NewServer(r).Serve(l)
	return l
}

// TestFrontOneWritePerReply: the cluster front-end, like the crs
// server, sends each reply in one write — a 24-candidate RETRIEVE,
// STATS, EXPLAIN and FLIGHT alike.
func TestFrontOneWritePerReply(t *testing.T) {
	l := startCountedFront(t)
	c, err := crs.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.OneWrite(t, "RETRIEVE", func() (int, error) {
		res, err := c.Retrieve("fs1+fs2", "wide(X, Y)")
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
		res, err := c.Explain("fs1+fs2", "wide(X, Y)")
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

// TestFrontPipelinedErrors: a good RETRIEVE, a bad mode, an unparsable
// goal, a bad FLIGHT count, EXPLAIN and STATS are each answered
// completely and in order by the front-end, pipelined in one write with
// QUIT and one at a time — no front-end path leaves a reply unflushed.
func TestFrontPipelinedErrors(t *testing.T) {
	l := startCountedFront(t)
	wiretest.RunScript(t, l.Addr().String(), []wiretest.Step{
		{Req: "RETRIEVE fs1+fs2 wide(X, Y).", Check: func(r *wiretest.Replies) {
			if n := r.Block("CANDIDATES", "C"); n != 24 {
				t.Fatalf("RETRIEVE answered %d candidates, want 24", n)
			}
			r.Prefix("STATS mode=fs1+fs2 total=24 ")
		}},
		{Req: "RETRIEVE warp wide(X, Y).", Check: func(r *wiretest.Replies) { r.Prefix("ERR crs: unknown mode") }},
		{Req: "RETRIEVE fs1 wide(((.", Check: func(r *wiretest.Replies) { r.Prefix("ERR parse: ") }},
		{Req: "FLIGHT x", Check: func(r *wiretest.Replies) { r.Prefix("ERR usage: FLIGHT") }},
		{Req: "EXPLAIN fs1+fs2 wide(X, Y).", Check: func(r *wiretest.Replies) { r.Block("EXPLAIN", "E") }},
		{Req: "STATS", Check: func(r *wiretest.Replies) { r.Block("STATS", "S") }},
	})
}
