package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/parse"
	"clare/internal/wal"
)

// An end-to-end run builds the stack at least minSetupRounds times and
// until the builds add up to setupBudget (at most maxSetupRounds);
// setup_s is the median. Small stacks build in milliseconds, so they get
// more rounds.
const (
	minSetupRounds = 5
	maxSetupRounds = 40
	setupBudget    = 2 * time.Second
)

// probeSlices is how many read-phase / write-probe pairs the measured
// window of a read-only workload is cut into.
const probeSlices = 10

// warmupOps is how many verified but untimed operations each client
// sends before the measured window (lazy pools, caches, first dials).
const warmupOps = 100

// runWorkload generates the workload, computes the reference answers,
// sets the stack up and runs the end-to-end or the traced measurement.
// corrupt, when non-nil, tampers with the references first (self-test).
func runWorkload(name string, o options, corrupt func(*spec)) (outcome, error) {
	var out outcome
	s, err := builders[name](o.seed, o.tiny)
	if err != nil {
		return out, err
	}
	if err := computeReferences(s); err != nil {
		return out, err
	}
	if corrupt != nil {
		corrupt(s)
	}
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("-- %s (%s): %s; %d clients\n", name, mode, s.sizes, clients)

	heapBefore := liveHeap()
	var setups []float64
	var st *stack
	var walDir string
	var spent time.Duration
	for i := 1; ; i++ {
		if s.wal {
			if walDir, err = os.MkdirTemp(tmpDir, "wal-"); err != nil {
				return out, err
			}
		}
		// Every build starts from the same collector state.
		runtime.GC()
		var d time.Duration
		st, d, err = setupStack(s, o.trace, walDir)
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
		if o.trace || i >= maxSetupRounds || (i >= minSetupRounds && spent >= setupBudget) {
			break
		}
		st.close()
		os.RemoveAll(walDir)
	}
	if walDir != "" {
		defer os.RemoveAll(walDir)
	}
	heapAfter := liveHeap()

	if o.trace {
		err = tracedRun(s, st, o, &out)
		st.close()
		if err != nil {
			return out, err
		}
		printMetrics(name+" per-layer", out.metrics)
		return out, nil
	}

	lr, err := measure(s, st, o.seconds, o.seed)
	st.close()
	if err != nil {
		return out, err
	}
	out.attempted = lr.reads.n + lr.writes.n
	out.failed = lr.reads.failed + lr.writes.failed
	if s.wal {
		missing, err := checkDurability(s, walDir, lr.acked)
		if err != nil {
			return out, err
		}
		out.failed += missing
		fmt.Printf("durability: %d acknowledged writes, %d missing after recovery\n", len(lr.acked), missing)
	}
	reportLoop(&out, lr)
	out.set("setup_s", "s", median(setups))
	out.set("heap_mb", "MB", float64(heapAfter-heapBefore)/(1<<20))
	printMetrics(name+" end-to-end", out.metrics)
	fmt.Printf("  samples: %d retrievals, %d writes; attempted %d, failed %d, failed_frac %.6f; %d setup rounds, median %.4f s\n",
		len(lr.reads.lat), len(lr.writes.lat), out.attempted, out.failed,
		float64(out.failed)/float64(max(out.attempted, 1)), len(setups), median(setups))
	return out, nil
}

// reportLoop sets the end-to-end latency and throughput metrics.
func reportLoop(out *outcome, lr *loopResult) {
	r := sorted(lr.reads.lat)
	w := sorted(lr.writes.lat)
	out.set("retrieve_p50_us", "us", quantile(r, 0.50))
	out.set("retrieve_p99_us", "us", quantile(r, 0.99))
	out.set("retrieve_qps", "1/s", float64(len(r))/lr.readSecs)
	out.set("write_p50_us", "us", quantile(w, 0.50))
	out.set("write_p99_us", "us", quantile(w, 0.99))
	out.set("write_qps", "1/s", float64(len(w))/lr.writeSecs)
}

// liveHeap forces collections and reports the live heap in bytes. Two
// extra cycles empty the sync.Pool victim caches, which otherwise keep a
// dropped retriever (its arena pool is embedded in it) alive.
func liveHeap() int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// opLog is one client's tally for one kind of operation.
type opLog struct {
	lat       []float64 // microseconds, successful operations only
	n, failed int64
}

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.n += o.n
	l.failed += o.failed
}

// ackedWrite is one write the server acknowledged with a log sequence
// number.
type ackedWrite struct {
	seq    uint64
	op     wal.Op
	clause string
}

type loopResult struct {
	reads, writes       opLog
	readSecs, writeSecs float64
	acked               []ackedWrite
}

// readThink is the mean think time between write-mix reads. Without
// it the reader races the writer for the predicate lock after every
// write, and which side wins — so whether reads are fast or wait out a
// whole write — flips from run to run; with it, nearly every read
// arrives after the next write holds the lock.
const readThink = time.Millisecond

// measure drives the closed loop: clients connections to the workload's
// entry point, each sending its next request only after the previous
// reply. Mixed workloads write on connection 0 and read on connection 1
// for the whole window; the others alternate reads and a write probe on
// every connection (see probeSlices). A collection before each timed
// phase starts every phase in the same garbage-collector state.
func measure(s *spec, st *stack, seconds float64, seed int64) (*loopResult, error) {
	conns := make([]*crs.Client, clients)
	for i := range conns {
		c, err := dial(st.entry)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	lr := &loopResult{}
	window := time.Duration(seconds * float64(time.Second))
	var mu sync.Mutex
	run := func(n int, body func(i int, c *crs.Client)) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body(i, conns[i])
			}(i)
		}
		wg.Wait()
	}
	offset := func(i int) int { return i * len(s.reads) / clients }

	// Warm-up: verified, counted as attempted, not timed.
	run(clients, func(i int, c *crs.Client) {
		var l opLog
		readLoop(c, s, offset(i), time.Time{}, warmupOps, nil, &l)
		mu.Lock()
		lr.reads.n += l.n
		lr.reads.failed += l.failed
		mu.Unlock()
	})

	if s.mixed {
		rng := rand.New(rand.NewSource(seed))
		think := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(readThink)) }
		runtime.GC()
		start := time.Now()
		deadline := start.Add(window)
		run(clients, func(i int, c *crs.Client) {
			var l opLog
			var acked []ackedWrite
			if i == 0 {
				acked, _ = writeLoop(c, s, i, 0, deadline, &l)
			} else {
				readLoop(c, s, offset(i), deadline, 0, think, &l)
			}
			mu.Lock()
			if i == 0 {
				lr.writes.merge(&l)
				lr.acked = append(lr.acked, acked...)
			} else {
				lr.reads.merge(&l)
			}
			mu.Unlock()
		})
		lr.readSecs = time.Since(start).Seconds()
		lr.writeSecs = lr.readSecs
		// One last write stays in place, so recovery has a state to prove.
		seq, err := conns[0].AssertNow(s.writeFact(clients, 0))
		lr.writes.n++
		if err != nil {
			lr.writes.failed++
		} else {
			lr.acked = append(lr.acked, ackedWrite{seq, wal.OpAssert, s.writeFact(clients, 0)})
		}
		return lr, nil
	}

	// Read-only workloads alternate a read phase and a write probe
	// probeSlices times, 80 % / 20 % of each slice, both on every
	// connection, so the reads and the writes sample the same stretch of
	// the run and neither carries the other's interference.
	slice := window / probeSlices
	readLen := time.Duration(0.8 * float64(slice))
	next := make([]int, clients)    // each connection's read stream position
	written := make([]int, clients) // each connection's write count
	for i := range next {
		next[i] = offset(i)
	}
	for k := 0; k < probeSlices; k++ {
		runtime.GC()
		start := time.Now()
		deadline := start.Add(readLen)
		run(clients, func(i int, c *crs.Client) {
			var l opLog
			next[i] = readLoop(c, s, next[i], deadline, 0, nil, &l)
			mu.Lock()
			lr.reads.merge(&l)
			mu.Unlock()
		})
		lr.readSecs += time.Since(start).Seconds()
		runtime.GC()
		start = time.Now()
		deadline = start.Add(slice - readLen)
		run(clients, func(i int, c *crs.Client) {
			var l opLog
			var acked []ackedWrite
			acked, written[i] = writeLoop(c, s, i, written[i], deadline, &l)
			mu.Lock()
			lr.writes.merge(&l)
			lr.acked = append(lr.acked, acked...)
			mu.Unlock()
		})
		lr.writeSecs += time.Since(start).Seconds()
	}
	return lr, nil
}

// readLoop sends reads from position start of the read stream until the
// deadline (or, with a zero deadline, for limit operations), checking
// every answer against the reference, and returns the next position.
// think, when non-nil, gives the pause after each reply.
func readLoop(c *crs.Client, s *spec, start int, deadline time.Time, limit int, think func() time.Duration, l *opLog) int {
	for i := start; ; i++ {
		if deadline.IsZero() {
			if i-start >= limit {
				return i
			}
		} else if !time.Now().Before(deadline) {
			return i
		}
		g := s.reads[i%len(s.reads)]
		t0 := time.Now()
		res, err := c.Retrieve(g.mode, g.text)
		d := since(t0)
		l.n++
		if err != nil || !sameAnswer(res.Clauses, g.ref) {
			l.failed++
		} else if !deadline.IsZero() {
			l.lat = append(l.lat, d)
		}
		if think != nil {
			time.Sleep(think())
		}
	}
}

// writeLoop asserts and then retracts a fresh fact until the deadline,
// so the predicate's size stays level, starting at the connection's
// write number from; it returns the acknowledged writes and the next
// write number. Both writes are timed.
func writeLoop(c *crs.Client, s *spec, conn, from int, deadline time.Time, l *opLog) ([]ackedWrite, int) {
	var acked []ackedWrite
	i := from
	for ; time.Now().Before(deadline); i++ {
		fact := s.writeFact(conn, i)
		for _, op := range []wal.Op{wal.OpAssert, wal.OpRetract} {
			t0 := time.Now()
			var seq uint64
			var err error
			if op == wal.OpAssert {
				seq, err = c.AssertNow(fact)
			} else {
				seq, err = c.Retract(fact)
			}
			d := since(t0)
			l.n++
			if err != nil {
				l.failed++
				break
			}
			l.lat = append(l.lat, d)
			acked = append(acked, ackedWrite{seq, op, fact})
		}
	}
	return acked, i
}

// checkDurability reopens the write-ahead log into a fresh server with
// Server.Recover and counts the acknowledged writes that did not
// survive: each must sit in the log under its sequence number, and the
// recovered predicate must hold exactly the writes left in place. The
// fresh server starts from each predicate's first clause only: every
// replayed record recompiles its predicate, and replaying onto the full
// KB would take as long as the measured window did.
func checkDurability(s *spec, dir string, acked []ackedWrite) (int64, error) {
	r, err := core.New(nativeConfig(nil))
	if err != nil {
		return 0, err
	}
	srv := crs.NewServer(r)
	for _, p := range s.preds {
		if err := srv.Load(p.Name, p.Clauses[:1]); err != nil {
			return 0, err
		}
	}
	policy, err := wal.ParseFsyncPolicy("always")
	if err != nil {
		return 0, err
	}
	log, err := wal.Open(dir, wal.Options{Fsync: policy})
	if err != nil {
		return 0, fmt.Errorf("reopening wal: %w", err)
	}
	defer log.Close()
	srv.AttachWAL(log)
	if _, err := srv.Recover(); err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	logged := map[uint64]wal.Record{}
	if err := log.Range(1, func(rec wal.Record) bool {
		logged[rec.Seq] = rec
		return true
	}); err != nil {
		return 0, err
	}
	var missing int64
	net := map[string]int{}
	for _, a := range acked {
		rec, ok := logged[a.seq]
		if !ok || rec.Op != a.op || !sameClauseText(a.clause, rec.Clause) {
			missing++
		}
		if a.op == wal.OpAssert {
			net[a.clause]++
		} else {
			net[a.clause]--
		}
	}
	// Every fact left asserted must answer from the recovered server.
	sess := srv.OpenSession()
	defer sess.Close()
	for fact, n := range net {
		if n == 0 {
			continue
		}
		t, err := parse.Term(fact)
		if err != nil {
			return 0, err
		}
		rt, err := sess.Retrieve(t, nil)
		if err != nil || len(rt.Candidates) != n {
			missing++
		}
	}
	want := 1
	for _, n := range net {
		want += n
	}
	if p, ok := r.PredicateByIndicator(s.writePred); !ok || p.File.Len() != want {
		missing++
	}
	return missing, nil
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of an ascending sample (0 when
// empty).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }
