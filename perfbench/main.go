// Command perfbench is the repository's benchmark. It runs one named
// workload cold, again and again for a fixed time, checks every run's
// outputs, and prints the end-to-end metrics; with --trace 1 it also
// re-drives the workload through each layer's public functions and
// prints per-layer metrics. See README.md in this directory.
//
//	perfbench --workload serve-contended --seed 0 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// metricDef names one reported metric, its unit, and which direction
// is better.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_mticks_per_s", "Mtick/s", "higher"},
	{"mem_peak_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"achieved_mbps", "Mb/s", "higher"},
}

// perLayer are the traced run's metrics, grouped by layer. A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.new_system_ms", "ms", "lower"},
	{"sim.step_self_s", "s", "lower"},
	{"sim.step_ns_per_tick", "ns/tick", "lower"},
	{"sim.step_allocs", "allocs/Mtick", "lower"},
	{"sim.inject_ns", "ns", "lower"},
	{"sim.snapshot_ms", "ms", "lower"},
	{"sim.restore_ms", "ms", "lower"},
	{"sim.evaluate_s", "s", "lower"},
	{"sim.ticks", "ticks", "lower"},
	{"sim.peak_outstanding", "count", "lower"},
	{"sim.recycle_ratio", "ratio", "higher"},
	{"sim.frontend_wait_p99_ticks", "ticks", "lower"},
	{"sim.route_imbalance", "ratio", "lower"},
	{"sim.shed", "count", "lower"},
	{"sim.deadline_missed", "count", "lower"},
	{"sim.retried", "count", "lower"},
	{"memctrl.service_p99_ticks", "ticks", "lower"},
	{"memctrl.rng_rounds", "count", "higher"},
	{"memctrl.rng_served", "count", "higher"},
	{"memctrl.reads_served", "count", "higher"},
	{"memctrl.writes_served", "count", "higher"},
	{"memctrl.unblock_events", "count", "lower"},
	{"memctrl.mode_switches", "count", "lower"},
	{"memctrl.starvation_overrides", "count", "lower"},
	{"core.buffer_serve_rate", "ratio", "higher"},
	{"core.predictor_accuracy", "ratio", "higher"},
	{"dram.acts", "count", "lower"},
	{"dram.reads", "count", "higher"},
	{"dram.writes", "count", "higher"},
	{"dram.refs", "count", "lower"},
	{"cpu.minstr_per_s", "Minstr/s", "higher"},
	{"cpu.rng_stall_frac", "ratio", "lower"},
	{"workload.arrival_ns", "ns", "lower"},
	{"workload.closedloop_ns", "ns", "lower"},
	{"workload.trace_ns_per_op", "ns", "lower"},
	{"trng.word_ns", "ns", "lower"},
	{"trng.health_ns", "ns", "lower"},
	{"trng.trips", "count", "lower"},
	{"trng.downtime_ticks", "ticks", "lower"},
	{"metrics.hist_add_ns", "ns", "lower"},
	{"metrics.percentile_us", "us", "lower"},
	{"api.validate_us", "us", "lower"},
	{"api.report_ms", "ms", "lower"},
	{"api.tracing_overhead", "ratio", "lower"},
	{"api.p99_ns", "ns", "lower"},
	{"api.keygen_p99_ns", "ns", "lower"},
	{"api.ws_gmean", "ratio", "higher"},
	{"api.fail_frac", "ratio", "lower"},
	{"api.loc", "lines", "lower"},
	{"sim.loc", "lines", "lower"},
	{"memctrl.loc", "lines", "lower"},
	{"dram.loc", "lines", "lower"},
	{"cpu.loc", "lines", "lower"},
	{"core.loc", "lines", "lower"},
	{"trng.loc", "lines", "lower"},
	{"workload.loc", "lines", "lower"},
	{"metrics.loc", "lines", "lower"},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-contended", "serve-overload"}

// extraWorkloads run on request but are not in BENCHMARK.json:
// paper-multicore fails its ticked-engine check because the simulator's
// event engine diverges from the ticked reference on a few Figure 7
// runs (see README.md).
var extraWorkloads = []string{"paper-multicore"}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	valid := strings.Join(slices.Concat(workloadNames, extraWorkloads), ", ")
	name := fs.String("workload", "", "workload to run: "+valid)
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of timed cold runs (at least 3 runs are made)")
	trace := fs.Int("trace", 0, "1 adds the traced run and prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	w, ok := newWorkloads(0, 0)[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, valid)
		return 2
	}
	res, err := runBench(context.Background(), options{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, minRuns: 3,
	}, w, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics of defs as a table and returns them keyed
// by name; a metric missing from values is an error.
func report(out io.Writer, title string, defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	fmt.Fprintf(out, "%s:\n", title)
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", d.name, v, d.unit)
		m[d.name] = metricValue{v, d.unit}
	}
	return m, nil
}
