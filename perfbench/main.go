// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds the CRS stack in-process — the same crs.Server and
// cluster.Server code the crsd and crsrouter daemons serve — and drives
// one of three closed-loop workloads over loopback TCP:
//
//	perfbench --workload point-routed --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics a client sees; --trace 1 is
// the separate traced run that times each layer's public entry point on
// the same inputs and derives per-layer self time and counts. The last
// line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --workload all runs every workload in both
// modes and prints the full report; --selftest checks the benchmark
// itself on tiny inputs. See README.md for the workload design and the
// layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs pins the scheduler width so that a run measures the same
// 2-core closed loop on any host.
const gomaxprocs = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // shrink every KB (self-test)
}

// tmpDir holds the write-ahead logs and the traced run's span dumps,
// inside the checkout's build directory.
const tmpDir = ".bench_build/tmp"

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	var selftest bool
	flag.StringVar(&o.workload, "workload", "all", "point-routed, scan-direct, write-mix, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same KB and goals")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	flag.BoolVar(&selftest, "selftest", false, "check the benchmark itself on tiny inputs and exit")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if selftest {
		return selfTest(o)
	}

	names := workloadNames
	if o.workload != "all" {
		if _, ok := builders[o.workload]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %v or all)\n", o.workload, workloadNames)
			return 2
		}
		names = []string{o.workload}
	}
	fmt.Printf("perfbench: seed=%d seconds=%g GOMAXPROCS=%d NumCPU=%d %s\n",
		o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	var total outcome
	total.metrics = map[string]metric{}
	for _, name := range names {
		modes := []bool{o.trace}
		if o.workload == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			wo := o
			wo.trace = traced
			res, err := runWorkload(name, wo, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			total.attempted += res.attempted
			total.failed += res.failed
			for k, v := range res.metrics {
				if len(names) > 1 || len(modes) > 1 {
					k = name + "/" + k
				}
				total.metrics[k] = v
			}
		}
	}
	printJSON(total)
	return 0
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports: the metrics plus the operation tally
// the correctness check produced.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// printMetrics renders the metrics as an aligned name/value/unit table.
func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("== %s\n", title)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printJSON(o outcome) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// since reports elapsed wall time in microseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
