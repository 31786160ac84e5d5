package core

import (
	"sync"
	"time"

	"clare/internal/telemetry"
)

// Stage names, shared by the stage histograms and the trace span
// taxonomy. A retrieval's span tree is:
//
//	retrieve                       (root: predicate, mode, board slot)
//	├─ encode                      (query-cache probe + SCW/PIF encode)
//	├─ board_lease                 (wall time waiting for a free unit)
//	├─ chunk[i]                    (sim engine, fs1+fs2 mode: one pipeline chunk)
//	│  ├─ fs1_scan                 (index scan through FS1, disk-bound)
//	│  ├─ disk_fetch               (surviving clause records off disk)
//	│  └─ fs2_match                (partial test unification on the board)
//	└─ host_match                  (software mode only)
//
// Flat modes (software, fs1, fs2) attach the stage spans directly under
// the root, and so does the native engine in fs1+fs2 mode: it scans the
// index once, so it records one fs1_scan, disk_fetch and fs2_match with
// the chunk ledger summed into their sim time and the chunk count in the
// fs1_scan "chunks" attribute. Sim durations come from the component
// models; wall durations from the host clock.
const (
	stageEncode    = "encode"
	stageLease     = "board_lease"
	stageFS1Scan   = "fs1_scan"
	stageDiskFetch = "disk_fetch"
	stageFS2Match  = "fs2_match"
	stageHostMatch = "host_match"
)

// coreMetrics pre-resolves every handle the retrieval hot path updates,
// so instrumentation costs one atomic op per touch (and literally nothing
// when no registry is configured: nil handles no-op).
type coreMetrics struct {
	retrievals    map[SearchMode]*telemetry.Counter
	errors        *telemetry.Counter
	retrievalSim  map[SearchMode]*telemetry.Histogram
	retrievalWall map[SearchMode]*telemetry.Histogram
	stageSim      map[string]*telemetry.Histogram
	stageWall     map[string]*telemetry.Histogram

	clausesIn *telemetry.Counter
	afterFS1  *telemetry.Counter
	afterFS2  *telemetry.Counter
	chunks    *telemetry.Counter
	overflows *telemetry.Counter

	leaseWait  *telemetry.Histogram
	boardsBusy *telemetry.Gauge

	retriesC *telemetry.Counter
	degraded map[string]*telemetry.Counter
	faultsC  *telemetry.Counter

	flightRecords *telemetry.Counter

	// Ghost-ratio gauges. stage="fs1" is maintained here from cumulative
	// filter counts: the fraction of FS1 survivors that FS2 then rejected
	// (FS1's false drops, §2.1). stage="fs2" is set by Explain, which is
	// the only place host-unification survivor counts exist.
	ghostFS1 *telemetry.Gauge
	ghostFS2 *telemetry.Gauge
	// Cumulative candidate flows behind ghostFS1, counted only for
	// retrievals where both FS1 and FS2 actually ran.
	ghostMu        sync.Mutex
	ghostIn        int64
	ghostSurvivors int64
}

var allModes = []SearchMode{ModeSoftware, ModeFS1, ModeFS2, ModeFS1FS2}

func newCoreMetrics(reg *telemetry.Registry) *coreMetrics {
	m := &coreMetrics{
		retrievals:    make(map[SearchMode]*telemetry.Counter, len(allModes)),
		retrievalSim:  make(map[SearchMode]*telemetry.Histogram, len(allModes)),
		retrievalWall: make(map[SearchMode]*telemetry.Histogram, len(allModes)),
		stageSim:      make(map[string]*telemetry.Histogram, 8),
		stageWall:     make(map[string]*telemetry.Histogram, 8),
	}
	for _, mode := range allModes {
		ml := telemetry.Labels{"mode": mode.String()}
		m.retrievals[mode] = reg.Counter("clare_retrievals_total", "retrievals completed per search mode", ml)
		m.retrievalSim[mode] = reg.Histogram("clare_retrieval_seconds", "whole-retrieval duration per mode and clock", nil,
			telemetry.Labels{"mode": mode.String(), "clock": "sim"})
		m.retrievalWall[mode] = reg.Histogram("clare_retrieval_seconds", "whole-retrieval duration per mode and clock", nil,
			telemetry.Labels{"mode": mode.String(), "clock": "wall"})
	}
	for _, stage := range []string{stageEncode, stageFS1Scan, stageDiskFetch, stageFS2Match, stageHostMatch} {
		m.stageSim[stage] = reg.Histogram("clare_stage_seconds", "per-stage duration per clock", nil,
			telemetry.Labels{"stage": stage, "clock": "sim"})
		m.stageWall[stage] = reg.Histogram("clare_stage_seconds", "per-stage duration per clock", nil,
			telemetry.Labels{"stage": stage, "clock": "wall"})
	}
	m.errors = reg.Counter("clare_retrieval_errors_total", "retrievals that failed", nil)
	m.clausesIn = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "input"})
	m.afterFS1 = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "after_fs1"})
	m.afterFS2 = reg.Counter("clare_stage_candidates_total", "candidate counts entering/leaving each filter stage",
		telemetry.Labels{"stage": "after_fs2"})
	m.chunks = reg.Counter("clare_pipeline_chunks_total", "FS1→FS2 pipeline chunks streamed", nil)
	m.overflows = reg.Counter("clare_result_overflows_total", "retrievals that overflowed the Result Memory", nil)
	m.leaseWait = reg.Histogram("clare_board_lease_wait_seconds", "wall time a retrieval waited for a free board unit", nil, nil)
	m.boardsBusy = reg.Gauge("clare_boards_busy", "board units currently leased", nil)
	m.retriesC = reg.Counter("clare_retrieval_retries_total", "retrieval attempts re-run after an injected fault", nil)
	m.degraded = map[string]*telemetry.Counter{
		"fs2": reg.Counter("clare_degraded_retrievals_total", "retrievals that fell down the degradation ladder, by rung",
			telemetry.Labels{"to": "fs2"}),
		"host": reg.Counter("clare_degraded_retrievals_total", "retrievals that fell down the degradation ladder, by rung",
			telemetry.Labels{"to": "host"}),
	}
	m.faultsC = reg.Counter("clare_retrieval_faults_total", "injected faults absorbed by retrievals", nil)
	m.flightRecords = reg.Counter("clare_flight_records_total", "retrievals captured into the flight recorder ring", nil)
	m.ghostFS1 = reg.Gauge("clare_stage_ghost_ratio", "fraction of a stage's survivors rejected by the next filter rung",
		telemetry.Labels{"stage": "fs1"})
	m.ghostFS2 = reg.Gauge("clare_stage_ghost_ratio", "fraction of a stage's survivors rejected by the next filter rung",
		telemetry.Labels{"stage": "fs2"})
	return m
}

// stageWallTimes accumulates per-stage host time across a retrieval (the
// stages interleave per chunk in fs1+fs2 mode, so each stage's wall time
// is summed over its slices and observed once at the end).
type stageWallTimes struct {
	encode, fs1, fetch, fs2, host time.Duration
}

// observe publishes one finished retrieval into the registry.
func (m *coreMetrics) observe(rt *Retrieval, wall time.Duration) {
	m.retrievals[rt.Mode].Inc()
	m.retrievalSim[rt.Mode].ObserveDuration(rt.Stats.Total)
	m.retrievalWall[rt.Mode].ObserveDuration(wall)
	st := &rt.Stats
	if st.FS1Scan > 0 {
		m.stageSim[stageFS1Scan].ObserveDuration(st.FS1Scan)
	}
	if st.DiskFetch > 0 {
		m.stageSim[stageDiskFetch].ObserveDuration(st.DiskFetch)
	}
	if st.FS2Match > 0 {
		m.stageSim[stageFS2Match].ObserveDuration(st.FS2Match)
	}
	if st.HostMatch > 0 {
		m.stageSim[stageHostMatch].ObserveDuration(st.HostMatch)
	}
	w := &rt.wall
	if w.encode > 0 {
		m.stageWall[stageEncode].ObserveDuration(w.encode)
	}
	if w.fs1 > 0 {
		m.stageWall[stageFS1Scan].ObserveDuration(w.fs1)
	}
	if w.fetch > 0 {
		m.stageWall[stageDiskFetch].ObserveDuration(w.fetch)
	}
	if w.fs2 > 0 {
		m.stageWall[stageFS2Match].ObserveDuration(w.fs2)
	}
	if w.host > 0 {
		m.stageWall[stageHostMatch].ObserveDuration(w.host)
	}
	m.clausesIn.Add(int64(st.TotalClauses))
	m.afterFS1.Add(int64(st.AfterFS1))
	m.afterFS2.Add(int64(st.AfterFS2))
	if m.ghostFS1 != nil && rt.Mode == ModeFS1FS2 && st.Degraded == "" && st.AfterFS1 > 0 {
		m.ghostMu.Lock()
		m.ghostIn += int64(st.AfterFS1)
		m.ghostSurvivors += int64(st.AfterFS2)
		m.ghostFS1.Set(1 - float64(m.ghostSurvivors)/float64(m.ghostIn))
		m.ghostMu.Unlock()
	}
	m.chunks.Add(int64(st.Chunks))
	if st.Overflowed {
		m.overflows.Inc()
	}
	m.faultsC.Add(int64(st.Faults))
}
