package core

import (
	"fmt"
	"testing"
	"time"

	"clare/internal/fault"
	"clare/internal/parse"
	"clare/internal/scw"
	"clare/internal/telemetry"
	"clare/internal/term"
)

// legacyFS1FS2Native is native mode (d) as it ran before the single
// partitioned sweep: one columnar scan per pipeline chunk, with that
// chunk's drive stream, fetch and match done before the next chunk is
// scanned. It is the ledger oracle for retrieveFS1FS2Native: both must
// leave identical candidates, Stats and drive Stats, and probe the
// drive's fault sites in the same order.
func legacyFS1FS2Native(r *Retriever, goal term.Term, pred *Predicate, rt *Retrieval, u *boardUnit) error {
	qd, q, err := r.encodeQuery(goal, rt)
	if err != nil {
		return err
	}
	ix := pred.File.Index()
	n := ix.Len()
	if n == 0 {
		return nil
	}
	chunk := r.cfg.StreamChunkEntries
	if chunk <= 0 {
		chunk = r.cfg.Disk.TrackBytes / scw.EntrySize
		if chunk < 1 {
			chunk = 1
		}
	}
	a := r.arena()
	defer r.natPool.Put(a)
	if err := a.nm.SetQuery(q); err != nil {
		return err
	}
	col := ix.Columnar()
	all := pred.File.All()

	access, err := u.drive.Access()
	if err != nil {
		return err
	}
	var scanChunks, matchChunks []time.Duration
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		col.ParScanRangeInto(qd, lo, hi, r.ScanWorkers(), r.scanPool, &a.pbuf)
		buf := &a.pbuf.Out
		rt.Stats.IndexBytes += buf.BytesScanned
		sTime := scw.ScanTime(buf.BytesScanned)
		dt, err := u.drive.Stream(buf.BytesScanned)
		if err != nil {
			return err
		}
		if dt > sTime {
			sTime = dt
		}
		rt.Stats.FS1Scan += sTime
		rt.Stats.AfterFS1 += len(buf.Pos)
		rt.Stats.MaskedHits += buf.MaskedHits
		scanChunks = append(scanChunks, sTime)

		fetchBytes := 0
		for _, p := range buf.Pos {
			fetchBytes += all[p].SizeBytes
		}
		rt.Stats.ClauseBytes += fetchBytes
		fetch, err := u.drive.FetchRun(len(buf.Pos), fetchBytes)
		if err != nil {
			return err
		}
		rt.Stats.DiskFetch += fetch

		for _, p := range buf.Pos {
			sc := all[p]
			if a.nm.Match(sc.Head) {
				rt.Candidates = append(rt.Candidates, sc)
			} else if a.nm.LastRejectXB() {
				rt.Stats.FS2RejectsXB++
			} else {
				rt.Stats.FS2RejectsLevel++
			}
		}
		matchChunks = append(matchChunks, fetch)
	}
	rt.Stats.FS1Scan += access
	rt.Stats.Chunks = len(scanChunks)
	rt.Stats.Total = pipelineTime(access, scanChunks, matchChunks)
	return nil
}

// ledgerWorkload is one predicate and the fs1+fs2 goals run against it.
type ledgerWorkload struct {
	name    string
	clauses []ClauseTerm
	goals   []term.Term
}

// ledgerWorkloads returns termgen workloads (masked and unmasked heads,
// shared-variable and near-miss goals, an open goal) plus a masked-head
// predicate spanning several disk tracks, so the one-track default
// chunking also yields more than one chunk.
func ledgerWorkloads(t *testing.T) []ledgerWorkload {
	var ws []ledgerWorkload
	for arity := 2; arity <= 3; arity++ {
		clauses, queries := genWorkload(t, int64(7100+arity), "g", arity, 240)
		open := make([]term.Term, arity)
		for i := range open {
			open[i] = term.NewVar(fmt.Sprintf("Q%d", i))
		}
		goals := append(queries[:24:24], term.New("g", open...))
		ws = append(ws, ledgerWorkload{fmt.Sprintf("termgen/%d", arity), clauses, goals})
	}
	n := 2*(DefaultConfig().Disk.TrackBytes/scw.EntrySize) + 300
	clauses := make([]ClauseTerm, n)
	for i := range clauses {
		a, b := term.Term(term.Atom(fmt.Sprintf("a%d", i%97))), term.Term(term.Atom(fmt.Sprintf("k%d", i%89)))
		switch i % 5 {
		case 0:
			a = term.NewVar("X")
		case 1:
			b = term.NewVar("Y")
		case 2:
			z := term.NewVar("Z")
			a, b = z, z
		}
		clauses[i] = ClauseTerm{Head: term.New("m", a, b)}
	}
	var goals []term.Term
	for _, g := range []string{"m(a5, Y)", "m(X, k7)", "m(a3, k3)", "m(X, Y)", "m(S, S)", "m(nobody, k1)"} {
		goals = append(goals, parse.MustTerm(g))
	}
	return append(ws, ledgerWorkload{"masked", clauses, goals})
}

// ledgerPair builds two native retrievers over the same clauses: one
// running retrieveFS1FS2Native, one running the legacy per-chunk loop.
// faults, when non-nil, gives each its own identically seeded injector.
func ledgerPair(t *testing.T, cfg Config, w ledgerWorkload, faults func() *fault.Injector) (got, want *Retriever) {
	t.Helper()
	cfg.Engine = EngineNative
	build := func() *Retriever {
		c := cfg
		if faults != nil {
			c.Faults = faults()
		}
		r, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddClauses("ledger", w.clauses); err != nil {
			t.Fatal(err)
		}
		return r
	}
	got, want = build(), build()
	want.nativeFS1FS2 = legacyFS1FS2Native
	return got, want
}

// sameLedger runs goal in fs1+fs2 mode on both retrievers and requires
// the same error disposition, candidates, Stats (Faults, Retries and
// Degraded included) and drive Stats. It returns the retrieval under
// test (nil when both failed).
func sameLedger(t *testing.T, tag string, got, want *Retriever, goal term.Term) *Retrieval {
	t.Helper()
	grt, gerr := got.Retrieve(goal, ModeFS1FS2)
	wrt, werr := want.Retrieve(goal, ModeFS1FS2)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s %v: err = %v, oracle err = %v", tag, goal, gerr, werr)
	}
	if gerr == nil {
		if len(grt.Candidates) != len(wrt.Candidates) {
			t.Fatalf("%s %v: %d candidates, oracle %d", tag, goal, len(grt.Candidates), len(wrt.Candidates))
		}
		for i := range grt.Candidates {
			if grt.Candidates[i].Addr != wrt.Candidates[i].Addr {
				t.Fatalf("%s %v: candidate %d addr %d, oracle %d",
					tag, goal, i, grt.Candidates[i].Addr, wrt.Candidates[i].Addr)
			}
		}
		if grt.Stats != wrt.Stats {
			t.Fatalf("%s %v: Stats\n got %+v\nwant %+v", tag, goal, grt.Stats, wrt.Stats)
		}
	}
	if g, w := got.Drive().Stats, want.Drive().Stats; g != w {
		t.Fatalf("%s %v: drive Stats\n got %+v\nwant %+v", tag, goal, g, w)
	}
	return grt
}

// TestNativeFS1FS2LedgerOracle: the single partitioned sweep with the
// chunk ledger priced from survivor positions must reproduce the
// per-chunk loop exactly — candidates, every Stats field and the drive's
// Stats — at every chunk size (one entry, odd, small, one track) and
// scan worker count.
func TestNativeFS1FS2LedgerOracle(t *testing.T) {
	prev := scw.ParScanMinEntries
	scw.ParScanMinEntries = 32
	t.Cleanup(func() { scw.ParScanMinEntries = prev })
	chunked := 0
	for _, w := range ledgerWorkloads(t) {
		for _, chunk := range []int{1, 7, 16, 0} {
			cfg := DefaultConfig()
			cfg.StreamChunkEntries = chunk
			got, want := ledgerPair(t, cfg, w, nil)
			for _, workers := range []int{1, 2, 4} {
				got.SetScanWorkers(workers)
				want.SetScanWorkers(workers)
				tag := fmt.Sprintf("%s chunk=%d workers=%d", w.name, chunk, workers)
				for _, goal := range w.goals {
					sameLedger(t, tag, got, want, goal)
				}
			}
			if rt, err := got.Retrieve(w.goals[len(w.goals)-1], ModeFS1FS2); err == nil && rt.Stats.Chunks > 1 {
				chunked++
			}
		}
	}
	// Every configuration but the termgen predicates at one track per
	// chunk must stream more than one chunk.
	if chunked != 10 {
		t.Fatalf("%d workload/chunk configurations streamed more than one chunk, want 10", chunked)
	}
}

// TestNativeFS1FS2LedgerOracleFaults repeats the oracle under seeded
// disk.index and disk.read faults. Both sides draw from identically
// seeded injectors, so equal Faults, Retries, Degraded and candidates
// on every goal show that the drive's fault sites are probed in the
// same order as the per-chunk loop.
func TestNativeFS1FS2LedgerOracleFaults(t *testing.T) {
	prev := scw.ParScanMinEntries
	scw.ParScanMinEntries = 32
	t.Cleanup(func() { scw.ParScanMinEntries = prev })
	var faulted, degraded, retried int
	for wi, w := range ledgerWorkloads(t) {
		for _, chunk := range []int{1, 7, 16, 0} {
			cfg := DefaultConfig()
			cfg.StreamChunkEntries = chunk
			cfg.RetryBackoff = time.Microsecond
			// Never trip the single board: a trip's cool-off is wall
			// time, which would make the two schedules diverge.
			cfg.TripThreshold = 1 << 20
			seed := int64(100*wi + chunk)
			got, want := ledgerPair(t, cfg, w, func() *fault.Injector {
				return fault.New(seed).
					Add(fault.Rule{Site: fault.SiteDiskIndex, Probability: 0.01}).
					Add(fault.Rule{Site: fault.SiteDiskRead, Probability: 0.05})
			})
			for _, workers := range []int{1, 2, 4} {
				got.SetScanWorkers(workers)
				want.SetScanWorkers(workers)
				tag := fmt.Sprintf("%s chunk=%d workers=%d", w.name, chunk, workers)
				for _, goal := range w.goals {
					rt := sameLedger(t, tag, got, want, goal)
					if rt == nil {
						continue
					}
					if rt.Stats.Faults > 0 {
						faulted++
					}
					if rt.Stats.Retries > 0 {
						retried++
					}
					if rt.Stats.Degraded != "" {
						degraded++
					}
				}
			}
			if g, o := got.cfg.Faults.Injected(), want.cfg.Faults.Injected(); g != o {
				t.Fatalf("%s chunk=%d: injected %d faults, oracle %d", w.name, chunk, g, o)
			}
		}
	}
	t.Logf("goals that faulted %d, retried %d, degraded %d", faulted, retried, degraded)
	if faulted == 0 || retried == 0 || degraded == 0 {
		t.Fatalf("fault schedule too quiet to compare ladders: faulted=%d retried=%d degraded=%d",
			faulted, retried, degraded)
	}
}

// TestNativeFS1FS2AllocsFlatInChunks: a traced native fs1+fs2 retrieval
// with metrics, tracer and flight recorder armed must allocate the same
// whether the predicate streams as 1 pipeline chunk or 100 — the chunk
// ledger is allocation-free and records no per-chunk spans.
func TestNativeFS1FS2AllocsFlatInChunks(t *testing.T) {
	const chunk = 16
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.StreamChunkEntries = chunk
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(64)
	cfg.Flight = telemetry.NewFlightRecorder(64)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each predicate holds exactly three clauses keyed hit, so both goals
	// return the same candidate slice and differ only in chunk count.
	facts := func(functor string, n int) []ClauseTerm {
		clauses := make([]ClauseTerm, n)
		for i := range clauses {
			key := term.Atom(fmt.Sprintf("k%d", i))
			if i%(n/3) == 1 {
				key = "hit"
			}
			clauses[i] = ClauseTerm{Head: term.New(functor, key, term.Int(int64(i)))}
		}
		return clauses
	}
	allocs := make(map[int]float64)
	for _, chunks := range []int{1, 100} {
		functor := fmt.Sprintf("c%d", chunks)
		if _, err := r.AddClauses("m", facts(functor, chunks*chunk)); err != nil {
			t.Fatal(err)
		}
		goal := term.New(functor, term.Atom("hit"), term.NewVar("N"))
		var rt *Retrieval
		run := func() {
			if rt, err = r.Retrieve(goal, ModeFS1FS2); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the query cache and the arena
		allocs[chunks] = testing.AllocsPerRun(200, run)
		if rt.Stats.Chunks != chunks || len(rt.Candidates) != 3 {
			t.Fatalf("%s: %d chunks, %d candidates; want %d, 3", functor, rt.Stats.Chunks, len(rt.Candidates), chunks)
		}
	}
	t.Logf("allocs/op: 1 chunk %.1f, 100 chunks %.1f", allocs[1], allocs[100])
	if d := allocs[100] - allocs[1]; d > 2 || d < -2 {
		t.Fatalf("allocs/op: 100 chunks %.1f, 1 chunk %.1f; must not scale with chunk count", allocs[100], allocs[1])
	}
	// 38 allocs/op measured at 100 chunks; the per-chunk loop with its
	// four spans per chunk took 1523 there (43 at 1 chunk).
	const ceiling = 44
	if allocs[100] > ceiling {
		t.Fatalf("allocs/op = %.1f, ceiling %d", allocs[100], ceiling)
	}
}
