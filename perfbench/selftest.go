package main

import (
	"fmt"
	"os"
)

// endToEnd and perLayer are the metric names and units every run must
// print (they mirror BENCHMARK.json).
var endToEnd = map[string]string{
	"retrieve_p50_us": "us", "retrieve_p99_us": "us", "retrieve_qps": "1/s",
	"write_p50_us": "us", "write_p99_us": "us", "write_qps": "1/s",
	"setup_s": "s", "heap_mb": "MB",
}

var perLayer = map[string]string{
	"scw.scan_mb_s": "MB/s", "scw.survivor_frac": "frac", "scw.ghost_frac": "frac",
	"fs2.match_mb_s": "MB/s", "fs2.survivor_frac": "frac",
	"core.retrieve_p50_us": "us", "core.retrieve_p99_us": "us", "core.self_us": "us",
	"core.allocs_per_op": "count", "core.bytes_per_op": "B", "core.lease_wait_us": "us",
	"core.qcache_hit_frac": "frac",
	"crs.session_p50_us":   "us", "crs.session_self_us": "us", "crs.session_allocs_per_op": "count",
	"crs.wire_rtt_p50_us": "us", "crs.wire_self_us": "us", "crs.wire_allocs_per_op": "count",
	"crs.wire_write_syscalls_per_op": "count", "crs.wire_bytes_per_op": "B",
	"cluster.route_p50_us": "us", "cluster.route_self_us": "us", "cluster.front_self_us": "us",
	"cluster.allocs_per_op": "count", "cluster.failovers": "count", "cluster.hedges": "count",
	"wal.append_p50_us": "us", "wal.fsyncs_per_write": "count", "wal.bytes_per_write": "B",
	"crs.apply_p50_us": "us", "crs.lock_wait_write_us": "us", "crs.lock_wait_read_us": "us",
	"trace.outer_p50_us": "us", "trace.overhead_frac": "frac",
}

// selfTest runs every workload tiny in both modes and checks that each
// emits every named metric with its unit and no failures; then it
// corrupts one reference answer and checks that the run reports it.
func selfTest(o options) int {
	o.tiny = true
	o.seconds = 1
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(os.Stderr, "selftest: FAIL "+format+"\n", args...)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			wo := o
			wo.trace = traced
			want := endToEnd
			if traced {
				want = perLayer
			}
			res, err := runWorkload(name, wo, nil)
			if err != nil {
				fail("%s trace=%v: %v", name, traced, err)
				continue
			}
			if res.failed != 0 || res.attempted == 0 {
				fail("%s trace=%v: %d of %d operations failed", name, traced, res.failed, res.attempted)
			}
			for k, unit := range want {
				if m, ok := res.metrics[k]; !ok || m.Unit != unit {
					fail("%s trace=%v: metric %s missing or not in %s", name, traced, k, unit)
				}
			}
			if len(res.metrics) != len(want) {
				fail("%s trace=%v: %d metrics, want %d", name, traced, len(res.metrics), len(want))
			}
		}
		res, err := runWorkload(name, o, func(s *spec) {
			g := s.reads[1]
			g.ref = append(append([]string(nil), g.ref...), "corrupt(reference).")
		})
		if err == nil && res.failed == 0 {
			fail("%s: a corrupted reference answer went unnoticed", name)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "selftest: %d failures\n", bad)
		return 1
	}
	fmt.Println("selftest: PASS")
	return 0
}
