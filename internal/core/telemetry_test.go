package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clare/internal/parse"
	"clare/internal/telemetry"
)

// telemetryRetriever builds a pooled retriever wired to a fresh registry
// and tracer.
func telemetryRetriever(t *testing.T, boards int) (*Retriever, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Boards = boards
	cfg.StreamChunkEntries = 16
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(128)
	r := buildRetriever(t, cfg, 120, 6)
	return r, cfg.Metrics, cfg.Tracer
}

// TestRetrievalSpanTree: one fs1+fs2 retrieval must record a complete
// span tree — root, encode, board lease, and per chunk an fs1_scan,
// disk_fetch and fs2_match — with parent links intact and simulated time
// that reconciles with the retrieval's StageStats.
func TestRetrievalSpanTree(t *testing.T) {
	r, _, tracer := telemetryRetriever(t, 2)
	rt, err := r.Retrieve(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	tr := rt.Trace()
	if tr == nil {
		t.Fatal("retrieval carried no trace")
	}
	root := tr.Root()
	if root.Name != "retrieve" || root.Attrs["predicate"] != "married_couple/2" || root.Attrs["mode"] != "fs1+fs2" {
		t.Errorf("root span = %+v", root)
	}
	if root.Sim != rt.Stats.Total {
		t.Errorf("root sim %v != Stats.Total %v", root.Sim, rt.Stats.Total)
	}
	byName := make(map[string][]*telemetry.Span)
	for _, sp := range tr.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"encode", "board_lease"} {
		if len(byName[name]) != 1 {
			t.Errorf("%s spans = %d, want 1", name, len(byName[name]))
		}
	}
	chunks := byName["chunk"]
	if len(chunks) != rt.Stats.Chunks || rt.Stats.Chunks < 2 {
		t.Fatalf("chunk spans = %d, Stats.Chunks = %d (want equal, ≥2)", len(chunks), rt.Stats.Chunks)
	}
	for _, name := range []string{"fs1_scan", "disk_fetch", "fs2_match"} {
		if len(byName[name]) != len(chunks) {
			t.Errorf("%s spans = %d, want one per chunk (%d)", name, len(byName[name]), len(chunks))
		}
	}
	// Parent links: chunks hang off the root, stages off their chunk.
	chunkIDs := make(map[int]bool)
	for _, c := range chunks {
		if c.Parent != root.ID {
			t.Errorf("chunk span parent = %d, want root %d", c.Parent, root.ID)
		}
		chunkIDs[c.ID] = true
	}
	var scanSim, fetchSim, matchSim time.Duration
	for _, name := range []string{"fs1_scan", "disk_fetch", "fs2_match"} {
		for _, sp := range byName[name] {
			if !chunkIDs[sp.Parent] {
				t.Errorf("%s span parent %d is not a chunk", name, sp.Parent)
			}
		}
	}
	for _, sp := range byName["fs1_scan"] {
		scanSim += sp.Sim
	}
	for _, sp := range byName["disk_fetch"] {
		fetchSim += sp.Sim
	}
	for _, sp := range byName["fs2_match"] {
		matchSim += sp.Sim
	}
	// Chunk scan spans exclude the initial positioning access, which
	// Stats.FS1Scan includes.
	if got, want := scanSim+r.cfg.Disk.AccessTime(), rt.Stats.FS1Scan; got != want {
		t.Errorf("Σ fs1_scan sim + access = %v, want Stats.FS1Scan %v", got, want)
	}
	if fetchSim != rt.Stats.DiskFetch {
		t.Errorf("Σ disk_fetch sim = %v, want %v", fetchSim, rt.Stats.DiskFetch)
	}
	if matchSim != rt.Stats.FS2Match {
		t.Errorf("Σ fs2_match sim = %v, want %v", matchSim, rt.Stats.FS2Match)
	}
	// The tracer ring holds the finished trace.
	if last := tracer.Last(1); len(last) != 1 || last[0] != tr {
		t.Error("finished trace not in the tracer ring")
	}
}

// TestNativeRetrievalSpanTree: the native engine scans the index once and
// prices the fs1+fs2 chunk pipeline as a ledger, so its span tree is flat
// — root, encode, board lease and exactly one fs1_scan, disk_fetch and
// fs2_match under the root, no chunk spans — with the ledger summed into
// the stage spans' simulated time.
func TestNativeRetrievalSpanTree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineNative
	cfg.StreamChunkEntries = 16
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(128)
	r := buildRetriever(t, cfg, 120, 6)
	rt, err := r.Retrieve(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Chunks < 2 {
		t.Fatalf("Stats.Chunks = %d, want a multi-chunk pipeline", rt.Stats.Chunks)
	}
	tr := rt.Trace()
	if tr == nil {
		t.Fatal("retrieval carried no trace")
	}
	root := tr.Root()
	if root.Name != "retrieve" || root.Sim != rt.Stats.Total {
		t.Errorf("root span = %+v, Stats.Total %v", root, rt.Stats.Total)
	}
	byName := make(map[string]*telemetry.Span)
	for _, sp := range tr.Spans[1:] {
		if byName[sp.Name] != nil {
			t.Errorf("more than one %s span", sp.Name)
		}
		if sp.Parent != root.ID {
			t.Errorf("%s span parent = %d, want root %d", sp.Name, sp.Parent, root.ID)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"encode", "board_lease", "fs1_scan", "disk_fetch", "fs2_match"} {
		if byName[name] == nil {
			t.Errorf("no %s span", name)
		}
	}
	if len(byName) != 5 {
		t.Errorf("span names %v, want exactly the five stages", byName)
	}
	scan, fetch := byName["fs1_scan"], byName["disk_fetch"]
	if scan == nil || fetch == nil {
		t.FailNow()
	}
	if got, want := scan.Sim+r.cfg.Disk.AccessTime(), rt.Stats.FS1Scan; got != want {
		t.Errorf("fs1_scan sim + access = %v, want Stats.FS1Scan %v", got, want)
	}
	if fetch.Sim != rt.Stats.DiskFetch {
		t.Errorf("disk_fetch sim = %v, want Stats.DiskFetch %v", fetch.Sim, rt.Stats.DiskFetch)
	}
	if got, want := scan.Attrs["chunks"], strconv.Itoa(rt.Stats.Chunks); got != want {
		t.Errorf("fs1_scan chunks attr = %q, want %q", got, want)
	}
}

// TestRetrievalMetrics: the registry must expose per-mode counters and
// per-stage histograms in both clocks after a mixed workload.
func TestRetrievalMetrics(t *testing.T) {
	r, reg, _ := telemetryRetriever(t, 2)
	for _, mode := range modes() {
		if _, err := r.Retrieve(parse.MustTerm("married_couple(husband3, X)"), mode); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`clare_retrievals_total{mode="software"} 1`,
		`clare_retrievals_total{mode="fs1+fs2"} 1`,
		`clare_retrieval_seconds_count{clock="sim",mode="fs2"} 1`,
		`clare_retrieval_seconds_count{clock="wall",mode="fs2"} 1`,
		`clare_stage_seconds_count{clock="sim",stage="fs1_scan"}`,
		`clare_stage_seconds_count{clock="wall",stage="fs1_scan"}`,
		`clare_stage_seconds_count{clock="sim",stage="fs2_match"}`,
		`clare_stage_seconds_count{clock="wall",stage="fs2_match"}`,
		`clare_stage_seconds_count{clock="sim",stage="host_match"} 1`,
		`clare_stage_candidates_total{stage="input"}`,
		`clare_disk_bytes_read_total{slot="0"}`,
		`clare_fs2_clauses_examined_total{slot="0"}`,
		`clare_vme_control_writes_total{board="fs2",slot="0"}`,
		`clare_qcache_misses_total`,
		`clare_board_lease_wait_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Registry counters must reconcile with the engine's own statistics.
	var examined float64
	for _, sv := range reg.Gather() {
		if sv.Name == "clare_fs2_clauses_examined_total" {
			examined += sv.Value
		}
	}
	if got := r.FS2Stats().ClausesExamined; float64(got) != examined {
		t.Errorf("registry examined %v != FS2Stats %d", examined, got)
	}
}

// TestUntracedRetrievalUnchanged: with no registry/tracer configured the
// retrieval must behave exactly as before (and carry no trace).
func TestUntracedRetrievalUnchanged(t *testing.T) {
	r := buildRetriever(t, DefaultConfig(), 40, 5)
	rt, err := r.Retrieve(parse.MustTerm("married_couple(X, Y)"), ModeFS1FS2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Trace() != nil {
		t.Error("untraced retrieval carried a trace")
	}
	if r.Metrics() != nil || r.Tracer() != nil {
		t.Error("accessors should be nil without telemetry")
	}
}

// TestStatsSnapshotDuringRetrievals: FS2Stats/DiskStats/QueryCache called
// concurrently with active retrievals must be race-free (run under -race)
// and deadlock-free, and must converge to the exact serial totals once
// the workload drains.
func TestStatsSnapshotDuringRetrievals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Boards = 4
	r := buildRetriever(t, cfg, 80, 5)
	goals := poolGoals()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers hammering the pool while retrievals run —
	// including two concurrent readers, which deadlocked the old
	// quiesce-based implementation.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.FS2Stats()
				_ = r.DiskStats()
				_ = r.QueryCache()
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				g := goals[(w+i)%len(goals)]
				if _, err := r.Retrieve(parse.MustTerm(g), ModeFS1FS2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	wg.Wait()

	// Drained: snapshots must now equal an identical serial run's totals.
	serial := buildRetriever(t, DefaultConfig(), 80, 5)
	for w := 0; w < 8; w++ {
		for i := 0; i < 25; i++ {
			g := goals[(w+i)%len(goals)]
			if _, err := serial.Retrieve(parse.MustTerm(g), ModeFS1FS2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := r.FS2Stats(), serial.FS2Stats(); got != want {
		t.Errorf("pooled FS2Stats %+v != serial %+v", got, want)
	}
	if got, want := r.DiskStats(), serial.DiskStats(); got != want {
		t.Errorf("pooled DiskStats %+v != serial %+v", got, want)
	}
}
