package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"clare/internal/cluster"
	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/wal"
	"clare/internal/workload"
)

// backend is one in-process CRS backend, configured like
// `crsd -engine native`: one board, metrics registry, trace ring and
// flight recorder on; planner, SLO and slow log off.
type backend struct {
	r      *core.Retriever
	srv    *crs.Server
	reg    *telemetry.Registry
	log    *wal.Log
	walDir string
	l      net.Listener
	served chan error
}

func nativeConfig(reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Engine = core.EngineNative
	cfg.Metrics = reg
	return cfg
}

// newBackend compiles preds into a fresh backend and starts serving it.
// walDir non-empty attaches a write-ahead log there (fsync always) and
// recovers it, as crsd -wal-dir does.
func newBackend(preds []workload.Predicate, walDir string) (*backend, error) {
	b := &backend{reg: telemetry.NewRegistry(), walDir: walDir}
	cfg := nativeConfig(b.reg)
	cfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceRing)
	flight := telemetry.NewFlightRecorder(telemetry.DefaultFlightSize)
	cfg.Flight = flight
	r, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	b.r = r
	b.srv = crs.NewServer(r)
	b.srv.SetFlight(flight, "")
	for _, p := range preds {
		if err := b.srv.Load(p.Name, p.Clauses); err != nil {
			return nil, fmt.Errorf("loading %s: %w", p.Name, err)
		}
	}
	if walDir != "" {
		if err := b.attachWAL(); err != nil {
			return nil, err
		}
	}
	if b.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		b.close()
		return nil, err
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(b.l) }()
	return b, nil
}

func (b *backend) attachWAL() error {
	policy, err := wal.ParseFsyncPolicy("always")
	if err != nil {
		return err
	}
	if b.log, err = wal.Open(b.walDir, wal.Options{Fsync: policy, Metrics: b.reg}); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	b.srv.AttachWAL(b.log)
	if _, err := b.srv.Recover(); err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	return nil
}

func (b *backend) addr() string { return b.l.Addr().String() }

// close stops the listener, drains the server and closes the log.
func (b *backend) close() {
	if b.l != nil {
		b.l.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b.srv.Shutdown(ctx) //nolint:errcheck // a forced close is fine at teardown
		cancel()
		<-b.served
		b.l = nil
	}
	if b.log != nil {
		b.log.Close()
		b.log = nil
	}
}

// stack is the served system one workload talks to.
type stack struct {
	backends []*backend
	router   *cluster.Router
	front    *cluster.Server
	frontL   net.Listener
	frontReg *telemetry.Registry
	served   chan error
	// entry is the address clients dial: the front-end when routed, the
	// single backend otherwise.
	entry string
}

// buildStack compiles the KB into the servers, opens the listeners and,
// when routed is set, puts a router and cluster.Server front-end over
// the backends (configured like crsrouter's defaults). Clients of a
// workload without shards still dial the backend directly; the router
// then only serves the traced run's layer timings. walDir is used when
// the spec logs writes.
func buildStack(s *spec, routed bool, walDir string) (*stack, error) {
	st := &stack{}
	shards := s.shards
	if shards == 0 {
		shards = 1
	}
	parts := make([][]workload.Predicate, shards)
	for _, p := range s.preds {
		i := cluster.ShardOf(indicatorOf(p).String(), shards)
		parts[i] = append(parts[i], p)
	}
	for i := 0; i < shards; i++ {
		dir := ""
		if s.wal {
			dir = walDir
		}
		b, err := newBackend(parts[i], dir)
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, b)
	}
	st.entry = st.backends[0].addr()
	if !routed {
		return st, nil
	}
	st.frontReg = telemetry.NewRegistry()
	cfg := cluster.Config{
		Metrics: st.frontReg,
		Tracer:  telemetry.NewTracer(telemetry.DefaultTraceRing),
		Flight:  telemetry.NewFlightRecorder(telemetry.DefaultFlightSize),
	}
	for _, b := range st.backends {
		cfg.Shards = append(cfg.Shards, []string{b.addr()})
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	r.StartReplication()
	st.router = r
	st.front = cluster.NewServer(r)
	if st.frontL, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.front.Serve(st.frontL) }()
	if s.shards > 0 {
		st.entry = st.frontL.Addr().String()
	}
	return st, nil
}

// shardOf returns the index of the backend holding predicate pi.
func (st *stack) shardOf(pi core.Indicator) int {
	return cluster.ShardOf(pi.String(), len(st.backends))
}

func (st *stack) close() {
	if st.frontL != nil {
		st.frontL.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st.front.Shutdown(ctx) //nolint:errcheck // a forced close is fine at teardown
		cancel()
		<-st.served
		st.frontL = nil
	}
	if st.router != nil {
		st.router.Close()
		st.router = nil
	}
	for _, b := range st.backends {
		b.close()
	}
}

// dial opens one client connection with the daemons' default timeout.
func dial(addr string) (*crs.Client, error) {
	c, err := crs.DialTimeout(addr, crs.DefaultTimeout)
	if err != nil {
		return nil, err
	}
	c.MaxRetries = -1 // a failure must count, not be replayed away
	return c, nil
}

// setupStack is one timed set-up: build the stack and get the first
// correct answer through the workload's entry point.
func setupStack(s *spec, routed bool, walDir string) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := buildStack(s, routed || s.shards > 0, walDir)
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(st.entry)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	defer c.Close()
	g := s.reads[0]
	res, err := c.Retrieve(g.mode, g.text)
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	if !sameAnswer(res.Clauses, g.ref) {
		st.close()
		return nil, 0, fmt.Errorf("first answer to %s is wrong: %d clauses, want %d", g.text, len(res.Clauses), len(g.ref))
	}
	return st, time.Since(start), nil
}

// computeReferences fills every distinct goal's reference answer from an
// in-process core retriever over the same clauses — the layer every
// other layer must agree with.
func computeReferences(s *spec) error {
	r, err := core.New(nativeConfig(nil))
	if err != nil {
		return err
	}
	for _, p := range s.preds {
		if _, err := r.AddClauses(p.Name, p.Clauses); err != nil {
			return fmt.Errorf("reference %s: %w", p.Name, err)
		}
	}
	for _, g := range s.distinct {
		m, err := crs.ParseMode(g.mode)
		if err != nil {
			return err
		}
		rt, err := r.Retrieve(g.t, *m)
		if err != nil {
			return fmt.Errorf("reference %s: %w", g.text, err)
		}
		if g.ref, err = renderAnswer(rt); err != nil {
			return fmt.Errorf("reference %s: %w", g.text, err)
		}
	}
	return nil
}

// renderAnswer formats a retrieval's candidates exactly as the CRS wire
// protocol does ("head." or "head :- body."), normalised.
func renderAnswer(rt *core.Retrieval) ([]string, error) {
	heads, bodies, err := rt.DecodeCandidates()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(heads))
	for i := range heads {
		if term.Equal(bodies[i], term.Atom("true")) {
			out[i] = normClause(fmt.Sprintf("%s.", heads[i]))
		} else {
			out[i] = normClause(fmt.Sprintf("%s :- %s.", heads[i], bodies[i]))
		}
	}
	return out, nil
}

// sameClauseText compares a clause we sent with the log's rendering of
// it (the server prints terms without spaces).
func sameClauseText(sent, logged string) bool {
	return strings.ReplaceAll(sent, " ", "") == strings.ReplaceAll(logged, " ", "")
}
