package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"clare/internal/clausefile"
	"clare/internal/core"
	"clare/internal/crs"
	"clare/internal/fs2"
	"clare/internal/parse"
	"clare/internal/pif"
	"clare/internal/scw"
	"clare/internal/telemetry"
	"clare/internal/term"
	"clare/internal/unify"
	"clare/internal/wal"
)

// The traced run times the public entry point of every layer, one call
// at a time from one client, on the workload's own goals:
//
//	front   crs.Client → cluster.Server   (front-end + router + backend)
//	route   cluster.Router.Retrieve       (router + backend wire)
//	wire    crs.Client → crs.Server       (one backend over loopback)
//	session crs.Session.Retrieve          (locks, accounting, core)
//	core    core.Retriever.Retrieve       (encode, lease, kernels, gather)
//	scw     scw.Columnar.ParScanInto      (FS1 kernel)
//	fs2     fs2.NativeMatcher.Match       (FS2 kernel)
//
// and, for writes, wire (crs.Client.AssertNow/Retract) → session
// (Session.AssertNow/RetractNow) → wal (wal.Log.Append with fsync).
// Each call is a span; the spans of one goal share an op id and name
// their enclosing layer as parent. A layer's self time is its duration
// minus its child layer's on the same op. Layers above the workload's
// own entry point are timed too, so every workload reports every layer.

// countOps is the fixed operation count of each deterministic count
// window; the traced run's counts repeat exactly for a given seed.
const countOps = 100

// countWrites is the fixed write count of the write count window.
const countWrites = 16

type span struct {
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

var parentOf = map[string]string{
	"route": "front", "wire": "route", "session": "wire", "core": "session",
	"scw": "core", "fs2": "core",
	"session.write": "wire.write", "wal": "session.write",
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	// durs[layer] holds each op's duration in µs; byOp[layer][op] the
	// same keyed by op, for self times.
	durs map[string][]float64
	byOp map[string]map[int64]float64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), durs: map[string][]float64{}, byOp: map[string]map[int64]float64{}}
}

func (l *spanLog) add(op int64, layer string, start time.Time, d time.Duration) {
	l.spans = append(l.spans, span{Op: op, Layer: layer, Parent: parentOf[layer],
		Start: start.Sub(l.t0).Nanoseconds(), Dur: d.Nanoseconds()})
	us := float64(d.Nanoseconds()) / 1e3
	l.durs[layer] = append(l.durs[layer], us)
	if l.byOp[layer] == nil {
		l.byOp[layer] = map[int64]float64{}
	}
	l.byOp[layer][op] += us
}

// p quantile of one layer's durations.
func (l *spanLog) p(layer string, q float64) float64 { return quantile(sorted(l.durs[layer]), q) }

// self is the median over ops of layer's duration minus its children's.
func (l *spanLog) self(layer string, children ...string) float64 {
	var diffs []float64
	for op, d := range l.byOp[layer] {
		for _, c := range children {
			d -= l.byOp[c][op]
		}
		diffs = append(diffs, d)
	}
	return median(diffs)
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernels drives the FS1 and FS2 kernels directly, with the parameters
// the native engine uses.
type kernels struct {
	enc  *scw.Encoder
	penc *pif.Encoder
	nm   *fs2.NativeMatcher
	pb   scw.ParScanBuf
}

func newKernels(r *core.Retriever) (*kernels, error) {
	cfg := core.DefaultConfig()
	enc, err := scw.NewEncoder(cfg.SCW)
	if err != nil {
		return nil, err
	}
	nm, err := fs2.NewNativeMatcher(cfg.Microprogram)
	if err != nil {
		return nil, err
	}
	return &kernels{enc: enc, penc: pif.NewEncoder(r.Symbols()), nm: nm}, nil
}

// kernelResult is what one goal's pass through the kernels saw.
type kernelResult struct {
	scanned, entries, survivors int // FS1 (zero when the mode skips it)
	inputs, inBytes, matched    int // FS2
	fs1Inputs                   []*clausefile.StoredClause
}

// run sweeps the goal through FS1 (when its mode uses it) and
// FS2, recording one span per kernel. The scan is one partition: the
// fs1+fs2 path sweeps each track-sized chunk serially.
func (k *kernels) run(g *goal, pred *core.Predicate, op int64, sl *spanLog) (kernelResult, error) {
	var kr kernelResult
	all := pred.File.All()
	inputs := all
	if g.mode != "fs2" {
		qd, err := k.enc.EncodeQuery(g.t)
		if err != nil {
			return kr, err
		}
		col := pred.File.Index().Columnar()
		t0 := time.Now()
		col.ParScanInto(qd, 1, nil, &k.pb)
		if sl != nil {
			sl.add(op, "scw", t0, time.Since(t0))
		}
		kr.scanned, kr.entries, kr.survivors = k.pb.Out.BytesScanned, k.pb.Out.EntriesScanned, len(k.pb.Out.Pos)
		inputs = make([]*clausefile.StoredClause, len(k.pb.Out.Pos))
		for i, p := range k.pb.Out.Pos {
			inputs[i] = all[p]
		}
		kr.fs1Inputs = inputs
	}
	q, err := k.penc.Encode(g.t, pif.QuerySide)
	if err != nil {
		return kr, err
	}
	if err := k.nm.SetQuery(q); err != nil {
		return kr, err
	}
	t0 := time.Now()
	for _, sc := range inputs {
		if k.nm.Match(sc.Head) {
			kr.matched++
		}
	}
	if sl != nil {
		sl.add(op, "fs2", t0, time.Since(t0))
	}
	kr.inputs = len(inputs)
	for _, sc := range inputs {
		kr.inBytes += sc.SizeBytes
	}
	return kr, nil
}

// layerSet holds one client of every layer over the traced stack.
type layerSet struct {
	st      *stack
	kern    []*kernels
	sess    []*crs.Session
	wire    []*crs.Client
	front   *crs.Client
	walLog  *wal.Log // the wal layer's own log (fsync always)
	failed  int64
	tried   int64
	outerIs string
	lastKR  kernelResult // the most recent kernel pass
}

func newLayerSet(s *spec, st *stack) (*layerSet, error) {
	ls := &layerSet{st: st, outerIs: "wire"}
	if s.shards > 0 {
		ls.outerIs = "front"
	}
	for _, b := range st.backends {
		k, err := newKernels(b.r)
		if err != nil {
			return nil, err
		}
		ls.kern = append(ls.kern, k)
		ls.sess = append(ls.sess, b.srv.OpenSession())
		c, err := dial(b.addr())
		if err != nil {
			ls.close()
			return nil, err
		}
		ls.wire = append(ls.wire, c)
	}
	var err error
	if ls.front, err = dial(st.frontL.Addr().String()); err != nil {
		ls.close()
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, "wal-layer-")
	if err != nil {
		ls.close()
		return nil, err
	}
	policy, _ := wal.ParseFsyncPolicy("always")
	if ls.walLog, err = wal.Open(dir, wal.Options{Fsync: policy}); err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

func (ls *layerSet) close() {
	for _, s := range ls.sess {
		s.Close()
	}
	for _, c := range ls.wire {
		c.Close()
	}
	if ls.front != nil {
		ls.front.Close()
	}
	if ls.walLog != nil {
		ls.walLog.Close()
		os.RemoveAll(ls.walLog.Dir())
	}
}

func (ls *layerSet) check(ok bool) {
	ls.tried++
	if !ok {
		ls.failed++
	}
}

// readOp runs one goal through the named layers (nil sl: untimed),
// checking every layer's answer against the reference.
func (ls *layerSet) readOp(g *goal, op int64, sl *spanLog, layers ...string) error {
	i := ls.st.shardOf(g.pi)
	b := ls.st.backends[i]
	mode, err := crs.ParseMode(g.mode)
	if err != nil {
		return err
	}
	// Alternate the call order per op, so each layer runs as often just
	// before as just after its neighbour (which warms the caches for it).
	for n := range layers {
		layer := layers[n]
		if op%2 == 1 {
			layer = layers[len(layers)-1-n]
		}
		t0 := time.Now()
		switch layer {
		case "kernels":
			pred, ok := b.r.PredicateByIndicator(g.pi)
			if !ok {
				return fmt.Errorf("no predicate %v", g.pi)
			}
			kr, err := ls.kern[i].run(g, pred, op, sl)
			if err != nil {
				return err
			}
			ls.check(kr.matched == len(g.ref))
			ls.lastKR = kr
			continue
		case "core":
			rt, err := b.r.Retrieve(g.t, *mode)
			ls.record(sl, op, layer, t0)
			ls.check(err == nil && len(rt.Candidates) == len(g.ref))
		case "session":
			rt, err := ls.sess[i].Retrieve(g.t, mode)
			ls.record(sl, op, layer, t0)
			ls.check(err == nil && len(rt.Candidates) == len(g.ref))
		case "wire":
			res, err := ls.wire[i].Retrieve(g.mode, g.text)
			ls.record(sl, op, layer, t0)
			ls.check(err == nil && sameAnswer(res.Clauses, g.ref))
		case "route":
			res, err := ls.st.router.Retrieve(g.mode, g.text)
			ls.record(sl, op, layer, t0)
			ls.check(err == nil && sameAnswer(res.Clauses, g.ref))
		case "front":
			res, err := ls.front.Retrieve(g.mode, g.text)
			ls.record(sl, op, layer, t0)
			ls.check(err == nil && sameAnswer(res.Clauses, g.ref))
		}
	}
	return nil
}

func (ls *layerSet) record(sl *spanLog, op int64, layer string, t0 time.Time) {
	if sl != nil {
		sl.add(op, layer, t0, time.Since(t0))
	}
}

// writeOp asserts then retracts one fresh fact through the named write
// layers: "wal" appends the same records to the wal layer's own log,
// "session" writes through an in-process session, "wire" through the
// backend's wire protocol.
func (ls *layerSet) writeOp(s *spec, n int, op int64, sl *spanLog, layers ...string) error {
	i := ls.st.shardOf(s.writePred)
	for _, layer := range layers {
		fact := s.writeFact(10+len(layer), n) // distinct facts per layer
		head, err := parse.Term(fact)
		if err != nil {
			return err
		}
		for k, wop := range []wal.Op{wal.OpAssert, wal.OpRetract} {
			op := op + int64(k) // the assert and the retract are two ops
			t0 := time.Now()
			switch layer {
			case "wal":
				_, err = ls.walLog.Append(wop, s.writePred.Functor, fact)
				ls.record(sl, op, "wal", t0)
			case "session":
				if wop == wal.OpAssert {
					_, err = ls.sess[i].AssertNow(head, nil)
				} else {
					_, err = ls.sess[i].RetractNow(head, nil)
				}
				ls.record(sl, op, "session.write", t0)
			case "wire":
				if wop == wal.OpAssert {
					_, err = ls.wire[i].AssertNow(fact)
				} else {
					_, err = ls.wire[i].Retract(fact)
				}
				ls.record(sl, op, "wire.write", t0)
			}
			ls.check(err == nil)
		}
	}
	return nil
}

// procIO reads the process's write-syscall and written-byte counters.
func procIO() (syscw, wchar int64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscw":
			syscw = n
		case "wchar":
			wchar = n
		}
	}
	return syscw, wchar
}

// counter is a snapshot of the process counters a count window reads.
type counter struct {
	mallocs, bytes, syscw, wchar int64
}

func snapshot() counter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counter{mallocs: int64(ms.Mallocs), bytes: int64(ms.TotalAlloc)}
	c.syscw, c.wchar = procIO()
	return c
}

// perOp is a count window's per-operation averages.
type perOp struct{ allocs, bytes, syscw, wchar float64 }

func (c counter) perOp(end counter, n int) perOp {
	f := float64(n)
	return perOp{float64(end.mallocs-c.mallocs) / f, float64(end.bytes-c.bytes) / f,
		float64(end.syscw-c.syscw) / f, float64(end.wchar-c.wchar) / f}
}

// regReading is a registry family's total: the sum and count of its
// histogram series (or the sum of its counters) whose labels include
// the match.
type regReading struct {
	sum float64
	n   int64
}

func readReg(regs []*telemetry.Registry, name string, match telemetry.Labels) regReading {
	var r regReading
	for _, reg := range regs {
		for _, sv := range reg.Gather() {
			if sv.Name != name {
				continue
			}
			ok := true
			for k, v := range match {
				if sv.Labels[k] != v {
					ok = false
				}
			}
			if ok {
				r.sum += sv.Value
				r.n += sv.Count
			}
		}
	}
	return r
}

// meanUS is the mean observation, in µs, a histogram gained between two
// readings (0 when it gained none).
func meanUS(a, b regReading) float64 {
	if b.n == a.n {
		return 0
	}
	return (b.sum - a.sum) / float64(b.n-a.n) * 1e6
}

// tracedRun is the --trace 1 measurement: a deterministic count pass, a
// timed single-client layer pass, then the workload's own closed loop
// (untraced) for the contention counters and the tracing-overhead
// comparison.
func tracedRun(s *spec, st *stack, o options, out *outcome) error {
	ls, err := newLayerSet(s, st)
	if err != nil {
		return err
	}
	defer ls.close()
	read := []string{"kernels", "core", "session", "wire", "route", "front"}
	var regs []*telemetry.Registry
	for _, b := range st.backends {
		regs = append(regs, b.reg)
	}
	front := []*telemetry.Registry{st.frontReg}
	hedges0 := readReg(front, "clare_cluster_hedges_total", nil)
	failovers0 := st.router.Failovers()

	// 1. Count pass, after a warm-up window. Automatic GC is off and a
	// forced one starts each window, so pooled buffers are dropped at the
	// same points on every run (and the garbage stays bounded); one P
	// keeps sync.Pool's per-P caches repeatable too. Each layer gets its
	// own window of the read stream, so each sees the workload's steady
	// query-cache state.
	gcPercent := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	at := func(w, j int) *goal { return s.reads[(w*countOps+j)%len(s.reads)] }
	for j := 0; j < countOps; j++ {
		if err := ls.readOp(at(6, j), 0, nil, read[1:]...); err != nil {
			return err
		}
	}
	var surv, entries, unified, fs2In, fs2Match int
	runtime.GC()
	for j := 0; j < countOps; j++ {
		g := at(0, j)
		i := st.shardOf(g.pi)
		pred, _ := st.backends[i].r.PredicateByIndicator(g.pi)
		kr, err := ls.kern[i].run(g, pred, 0, nil)
		if err != nil {
			return err
		}
		ls.check(kr.matched == len(g.ref))
		fs2In += kr.inputs
		fs2Match += kr.matched
		if g.mode == "fs2" {
			continue
		}
		surv += kr.survivors
		entries += kr.entries
		for _, sc := range kr.fs1Inputs {
			head, _, err := pred.File.DecodeClause(sc)
			if err != nil {
				return err
			}
			if unify.Unifiable(g.t, term.Rename(head)) {
				unified++
			}
		}
	}
	counts := map[string]perOp{}
	for w, layer := range read[1:] {
		runtime.GC()
		c0 := snapshot()
		for j := 0; j < countOps; j++ {
			if err := ls.readOp(at(w+1, j), 0, nil, layer); err != nil {
				return err
			}
		}
		counts[layer] = c0.perOp(snapshot(), countOps)
	}
	walLog := ls.walLog
	if b := st.backends[st.shardOf(s.writePred)]; b.log != nil {
		walLog = b.log
	}
	runtime.GC()
	w0 := walLog.Stats()
	for j := 0; j < countWrites; j++ {
		layers := []string{"session"}
		if walLog == ls.walLog {
			layers = []string{"wal"}
		}
		if err := ls.writeOp(s, 1000000+j, 0, nil, layers...); err != nil {
			return err
		}
	}
	w1 := walLog.Stats()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)

	// 2. Timed layer pass, one client: reads, then writes.
	sl := newSpanLog()
	var op int64
	phase := time.Duration(o.seconds * 0.5 * float64(time.Second))
	readEnd := time.Now().Add(phase * 4 / 5)
	var scanBytes, matchBytes int
	var scanUS, matchUS float64
	for j := 0; time.Now().Before(readEnd); j++ {
		g := s.reads[j%len(s.reads)]
		op++
		if err := ls.readOp(g, op, sl, read...); err != nil {
			return err
		}
		// Byte rates pair this op's kernel spans with the bytes they saw.
		if g.mode != "fs2" {
			scanBytes += ls.lastKR.scanned
			scanUS += sl.byOp["scw"][op]
		}
		matchBytes += ls.lastKR.inBytes
		matchUS += sl.byOp["fs2"][op]
	}
	writeEnd := time.Now().Add(phase / 5)
	for j := 0; time.Now().Before(writeEnd) || j < 4; j++ {
		if err := ls.writeOp(s, j, op+1, sl, "wal", "session", "wire"); err != nil {
			return err
		}
		op += 2
	}

	// 3. The workload's own closed loop, untraced: contention counters
	// and the untraced latency the tracing overhead is priced against.
	leaseName, lockName := "clare_board_lease_wait_seconds", "clare_crs_lock_wait_seconds"
	readOp, writeOp := telemetry.Labels{"op": "read"}, telemetry.Labels{"op": "write"}
	lease0, lockR0, lockW0 := readReg(regs, leaseName, nil), readReg(regs, lockName, readOp), readReg(regs, lockName, writeOp)
	qc0 := qcache(st)
	lr, err := measure(s, st, o.seconds*0.5, o.seed)
	if err != nil {
		return err
	}
	lease := meanUS(lease0, readReg(regs, leaseName, nil))
	lockR := meanUS(lockR0, readReg(regs, lockName, readOp))
	lockW := meanUS(lockW0, readReg(regs, lockName, writeOp))
	qc1 := qcache(st)
	hedges1 := readReg(front, "clare_cluster_hedges_total", nil)

	out.attempted = ls.tried + lr.reads.n + lr.writes.n
	out.failed = ls.failed + lr.reads.failed + lr.writes.failed

	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.set("scw.scan_mb_s", "MB/s", float64(scanBytes)/scanUS)
	out.set("scw.survivor_frac", "frac", frac(surv, entries))
	out.set("scw.ghost_frac", "frac", frac(surv-unified, surv))
	out.set("fs2.match_mb_s", "MB/s", float64(matchBytes)/matchUS)
	out.set("fs2.survivor_frac", "frac", frac(fs2Match, fs2In))
	out.set("core.retrieve_p50_us", "us", sl.p("core", 0.5))
	out.set("core.retrieve_p99_us", "us", sl.p("core", 0.99))
	out.set("core.self_us", "us", sl.self("core", "scw", "fs2"))
	out.set("core.allocs_per_op", "count", counts["core"].allocs)
	out.set("core.bytes_per_op", "B", counts["core"].bytes)
	out.set("core.lease_wait_us", "us", lease)
	out.set("core.qcache_hit_frac", "frac", frac(int(qc1[0]-qc0[0]), int(qc1[0]-qc0[0]+qc1[1]-qc0[1])))
	out.set("crs.session_p50_us", "us", sl.p("session", 0.5))
	out.set("crs.session_self_us", "us", sl.self("session", "core"))
	out.set("crs.session_allocs_per_op", "count", counts["session"].allocs)
	out.set("crs.wire_rtt_p50_us", "us", sl.p("wire", 0.5))
	out.set("crs.wire_self_us", "us", sl.self("wire", "session"))
	out.set("crs.wire_allocs_per_op", "count", counts["wire"].allocs)
	out.set("crs.wire_write_syscalls_per_op", "count", counts["wire"].syscw)
	out.set("crs.wire_bytes_per_op", "B", counts["wire"].wchar)
	out.set("cluster.route_p50_us", "us", sl.p("route", 0.5))
	out.set("cluster.route_self_us", "us", sl.self("route", "wire"))
	out.set("cluster.front_self_us", "us", sl.self("front", "route"))
	out.set("cluster.allocs_per_op", "count", counts["front"].allocs)
	out.set("cluster.failovers", "count", float64(st.router.Failovers()-failovers0))
	out.set("cluster.hedges", "count", hedges1.sum-hedges0.sum)
	out.set("wal.append_p50_us", "us", sl.p("wal", 0.5))
	out.set("wal.fsyncs_per_write", "count", frac(int(w1.Fsyncs-w0.Fsyncs), int(w1.Appends-w0.Appends)))
	out.set("wal.bytes_per_write", "B", frac(int(w1.Bytes-w0.Bytes), int(w1.Appends-w0.Appends)))
	apply := sl.self("session.write") // no log: the whole write is apply
	if walLog != ls.walLog {
		apply = sl.self("session.write", "wal")
	}
	out.set("crs.apply_p50_us", "us", apply)
	out.set("crs.lock_wait_write_us", "us", lockW)
	out.set("crs.lock_wait_read_us", "us", lockR)
	outer := sl.p(ls.outerIs, 0.5)
	untraced := quantile(sorted(lr.reads.lat), 0.5)
	out.set("trace.outer_p50_us", "us", outer)
	out.set("trace.overhead_frac", "frac", outer/untraced-1)

	printRateTable(out, sl)
	fmt.Printf("tracing overhead: traced %s p50 %.1f us (1 client) vs untraced retrieve_p50_us %.1f us (%d clients)\n",
		ls.outerIs, outer, untraced, clients)
	// Design check: where one retrieval's time goes.
	mean := func(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }
	reads := float64(max(len(sl.byOp["core"]), 1))
	kernUS := (sum(sl.durs["scw"]) + sum(sl.durs["fs2"])) / reads
	fmt.Printf("design check: wire+router share of the traced %s call %.2f (1 - session p50 / %s p50); "+
		"kernels+lease share of an untraced retrieval %.2f ((kernel mean %.1f us + lease wait %.1f us) / mean %.1f us)\n",
		ls.outerIs, 1-sl.p("session", 0.5)/outer, ls.outerIs,
		(kernUS+lease)/mean(lr.reads.lat), kernUS, lease, mean(lr.reads.lat))
	fmt.Printf("traced run: %d layer ops, %d spans; closed loop %d retrievals, %d writes; attempted %d, failed %d\n",
		op, len(sl.spans), len(lr.reads.lat), len(lr.writes.lat), out.attempted, out.failed)
	spans := filepath.Join(tmpDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, o.seed))
	if err := sl.write(spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", spans)
	return nil
}

// qcache totals the backends' query-cache hits and misses.
func qcache(st *stack) [2]int64 {
	var h [2]int64
	for _, b := range st.backends {
		q := b.r.QueryCache()
		h[0] += q.Hits
		h[1] += q.Misses
	}
	return h
}

// printRateTable prints each layer's single-client throughput beside the
// throughput of the layer feeding it, in the shape of the paper's
// Table 1 / §5 rate budget.
func printRateTable(out *outcome, sl *spanLog) {
	v := func(k string) float64 { return out.metrics[k].Value }
	ops := func(us float64) float64 {
		if us <= 0 {
			return 0
		}
		return 1e6 / us
	}
	kern := ops(sl.p("scw", 0.5) + sl.p("fs2", 0.5))
	fmt.Println("rate budget (paper Table 1 / §5: disk ~2 MB/s feeds FS1 at up to 4.5 MB/s and FS2 at >= 4.25 MB/s worst case)")
	fmt.Printf("  %-22s %14s   %-22s %14s   %s\n", "stage", "rate", "fed by", "rate", "paper")
	fmt.Printf("  %-22s %9.1f MB/s   %-22s %9.1f MB/s   FS1 4.5 MB/s\n", "scw FS1 scan", v("scw.scan_mb_s"), "disk (paper)", 2.0)
	fmt.Printf("  %-22s %9.1f MB/s   %-22s %9.1f MB/s   FS2 4.25 MB/s\n", "fs2 match", v("fs2.match_mb_s"), "scw FS1 scan", v("scw.scan_mb_s"))
	rows := []struct {
		stage, us, feeder string
		fed               float64
	}{
		{"core.Retrieve", "core", "kernels (scw+fs2)", kern},
		{"crs.Session", "session", "core.Retrieve", ops(sl.p("core", 0.5))},
		{"crs wire", "wire", "crs.Session", ops(sl.p("session", 0.5))},
		{"cluster.Router", "route", "crs wire", ops(sl.p("wire", 0.5))},
		{"cluster front-end", "front", "cluster.Router", ops(sl.p("route", 0.5))},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %10.0f op/s   %-22s %10.0f op/s\n", r.stage, ops(sl.p(r.us, 0.5)), r.feeder, r.fed)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
