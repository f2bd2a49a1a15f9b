package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"drstrange"
	"drstrange/internal/memctrl"
	"drstrange/internal/sim"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// options selects one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	minRuns  int
	spanDir  string // where the traced run's spans go; "" is .bench_build/spans
}

// modelled are the simulated outcomes of one run; they repeat exactly
// at a given seed. A metric a workload does not model reads 0.
type modelled struct {
	P99ns        float64 // DR-STRaNGe all-request p99 at the reference load
	KeygenP99ns  float64 // DR-STRaNGe keygen-class p99 at the reference load
	AchievedMbps float64 // RNG throughput DR-STRaNGe delivers at the top load
	WSGmean      float64 // Figure 7's DR-STRaNGe normalised weighted-speedup GMEAN
	FailFrac     float64 // (shed + deadline-missed + entropy-failed) / submitted
}

// outcome is one untraced run of a workload.
type outcome struct {
	digest   []byte // canonical output; every run at a seed must match byte for byte
	ops      int    // serve points or evaluated configs
	problems []string
	model    modelled
	ticks    int64                // simulated ticks, when the run reports them
	report   *drstrange.Report    // serve workloads
	results  []sim.WorkloadResult // paper-multicore
}

// layerOut is the traced pass of a workload.
type layerOut struct {
	ticks   int64    // simulated ticks (serve workloads)
	diffs   []string // how the re-drive diverged from the untraced run
	wall    time.Duration
	lanes   []*lane
	metrics map[string]float64 // per-layer metrics, full passes only
}

type runner interface {
	// setup makes the workload's public set-up calls once and returns
	// how long scenario validation took (0 without a scenario).
	setup(seed uint64) (time.Duration, error)
	// run is one untraced cold run.
	run(ctx context.Context, seed uint64, engine string, workers int) (*outcome, error)
	// layers is the traced pass, checked against the untraced run first;
	// full adds the per-layer metrics.
	layers(ctx context.Context, seed uint64, first *outcome, workers int, full bool) (*layerOut, error)
}

// newWorkloads builds the workloads. window and instr shorten the serve
// windows and the multicore instruction budget (0 keeps the benchmark's
// own); only tests shorten them.
func newWorkloads(window, instr int64) map[string]runner {
	shrink := func(f func(uint64) drstrange.Scenario) func(uint64) drstrange.Scenario {
		if window == 0 {
			return f
		}
		return func(seed uint64) drstrange.Scenario {
			sc := f(seed)
			sc.WindowTicks = window
			warm := window / 10
			sc.WarmupTicks = &warm
			if sc.Checkpoint > 0 {
				sc.Checkpoint = window / 4
			}
			return sc
		}
	}
	if instr == 0 {
		instr = multicoreInstr
	}
	return map[string]runner{
		"serve-contended": &serveWorkload{scenario: shrink(contendedScenario), refLoad: 1280},
		"serve-overload":  &serveWorkload{scenario: shrink(overloadScenario), refLoad: 20480},
		"paper-multicore": multicoreWorkload{instr: instr},
	}
}

// setupReps is how many times the set-up calls are repeated before
// each timed run. One set-up takes microseconds to a few milliseconds,
// so many repetitions cost little and steady the median.
const setupReps = 40

// runBench runs one invocation: set-up reps, timed cold runs, the
// untimed reference checks, and the traced pass; it prints a readable
// report to out and returns the result line.
func runBench(ctx context.Context, o options, w runner, out, diag io.Writer) (*result, error) {
	procs := min(2, runtime.NumCPU())
	prevProcs := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prevProcs)
	sim.SetWorkers(procs)
	sim.SetEngine(sim.EngineEvent)
	sim.SetEventQueue(sim.EventQueueHeap)
	defer func() {
		sim.SetWorkers(0)
		sim.SetEngine("")
		sim.SetEventQueue("")
	}()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d engine=%s eventq=%s workers=%d gomaxprocs=%d nproc=%d instructions=%d go=%s\n",
		o.workload, o.seed, sim.Engine(), sim.EventQueue(), sim.Workers(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		multicoreInstr, runtime.Version())

	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// Set-up: the public set-up calls, repeated before every timed run
	// so that the samples see the same host conditions as the runs; the
	// median counts.
	var setups, validates []float64
	setup := func() error {
		for range setupReps {
			t := time.Now()
			v, err := w.setup(o.seed)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			validates = append(validates, v.Seconds())
		}
		return nil
	}

	// Timed cold runs: memo reset, fresh Systems, every run checked.
	var first *outcome
	var walls, peaks, allocs []float64
	attempted := 0
	start := time.Now()
	for i := 0; i < o.minRuns || time.Since(start).Seconds()+median(walls) <= o.seconds; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		if err := setup(); err != nil {
			return nil, err
		}
		sim.ResetMemo()
		runtime.GC()
		debug.FreeOSMemory()
		a0 := allocBytes()
		ms := startMemSampler()
		t := time.Now()
		res, err := w.run(ctx, o.seed, sim.EngineEvent, procs)
		wall := time.Since(t)
		peak := ms.Stop()
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, float64(peak)/1e6)
		allocs = append(allocs, float64(allocBytes()-a0)/1e6)
		attempted += res.ops
		for _, p := range res.problems {
			fail("run %d: %s", i, p)
		}
		if first == nil {
			first = res
		} else if !bytes.Equal(res.digest, first.digest) {
			fail("run %d: output differs from run 0's", i)
		}
	}

	// Untimed reference check: the same workload under the ticked
	// reference engine must produce the same output.
	sim.ResetMemo()
	ref, err := w.run(ctx, o.seed, sim.EngineTicked, procs)
	if err != nil {
		return nil, fmt.Errorf("ticked reference run: %w", err)
	}
	if !bytes.Equal(ref.digest, first.digest) {
		fail("output under the ticked reference engine differs from the event engine's: %s", firstDiff(first.digest, ref.digest))
	}
	// The traced pass starts from the same state as a timed run, so its
	// wall time compares with theirs.
	sim.ResetMemo()
	runtime.GC()
	debug.FreeOSMemory()
	lo, err := w.layers(ctx, o.seed, first, procs, o.trace)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for _, d := range lo.diffs {
		fail("re-drive diverged from the untraced run: %s", d)
	}
	ticks := first.ticks + lo.ticks

	fmt.Fprintf(out, "runs=%d ops/run=%d ticks/run=%d wall_s per run=%.4g\n", len(walls), first.ops, ticks, walls)
	m := first.model
	fmt.Fprintf(out, "modelled: p99_ns=%g keygen_p99_ns=%g achieved_mbps=%g ws_gmean=%g fail_frac=%g\n",
		m.P99ns, m.KeygenP99ns, m.AchievedMbps, m.WSGmean, m.FailFrac)

	correct := len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(diag, "perfbench: check failed: %s\n", p)
	}
	failed := 0
	if !correct {
		// Outputs that fail a check count as entirely failed.
		failed = attempted
		m.FailFrac = 1
	}
	fmt.Fprintf(out, "correct=%v problems=%d\n", correct, len(problems))

	values := map[string]float64{}
	defs := endToEnd
	title := "end-to-end (tracing off, medians over the timed runs)"
	if !o.trace {
		wall := median(walls)
		values["wall_s"] = wall
		values["setup_s"] = median(setups)
		values["sim_mticks_per_s"] = float64(ticks) / wall / 1e6
		values["mem_peak_mb"] = median(peaks)
		values["alloc_mb"] = median(allocs)
		values["achieved_mbps"] = m.AchievedMbps
	} else {
		defs = perLayer
		title = "per-layer (traced run)"
		for k, v := range lo.metrics {
			values[k] = v
		}
		values["api.validate_us"] = median(validates) * 1e6
		values["api.tracing_overhead"] = lo.wall.Seconds() / median(walls)
		values["api.p99_ns"] = m.P99ns
		values["api.keygen_p99_ns"] = m.KeygenP99ns
		values["api.ws_gmean"] = m.WSGmean
		values["api.fail_frac"] = m.FailFrac
		root, err := repoRoot()
		if err != nil {
			return nil, err
		}
		for _, mod := range modules {
			n, err := linesOfCode(filepath.Join(root, mod.dir))
			if err != nil {
				return nil, err
			}
			values[mod.layer+".loc"] = float64(n)
		}
		dir := o.spanDir
		if dir == "" {
			dir = filepath.Join(root, ".bench_build", "spans")
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, lo.lanes); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	metrics, err := report(out, title, defs, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// parallel calls f(worker, i) for every i in [0, n) from workers
// goroutines, each taking the next index, and returns when all are done.
func parallel(workers, n int, f func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(k, i)
			}
		}()
	}
	wg.Wait()
}

// firstDiff describes where two outputs first differ.
func firstDiff(a, b []byte) string {
	line := 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first difference on line %d", line)
		}
		if a[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(a), len(b))
}

// layers re-drives the sweep through the System API and, when full,
// derives the per-layer metrics from its spans and counters.
func (w *serveWorkload) layers(ctx context.Context, seed uint64, first *outcome, workers int, full bool) (*layerOut, error) {
	spec, err := resolveServe(w.scenario(seed))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	outs, lanes, err := w.trace(ctx, seed, workers, t, full)
	if err != nil {
		return nil, err
	}
	lo := &layerOut{wall: time.Since(t), lanes: lanes, diffs: divergence(first.report, spec, outs)}
	var ref *pointOut
	for i := range outs {
		o := &outs[i]
		lo.ticks += o.ticks
		if o.wait != nil {
			ref = o
		}
		for _, sh := range o.shards {
			if sh.Routed != sh.Completed+sh.Shed+sh.DeadlineMissed+sh.FailedRequests {
				lo.diffs = append(lo.diffs, fmt.Sprintf("%s @%g Mb/s shard %d: routed %d != completed %d + shed %d + missed %d + failed %d",
					o.design, o.mbps, sh.Shard, sh.Routed, sh.Completed, sh.Shed, sh.DeadlineMissed, sh.FailedRequests))
			}
		}
	}
	if !full {
		return lo, nil
	}
	st := selfTimes(lanes)
	mean := func(name string, unit float64) float64 {
		s := st[name]
		if s.Count == 0 {
			return 0
		}
		return float64(s.Total) / float64(s.Count) / unit
	}
	m := map[string]float64{}
	step := st["sim.step"]
	m["sim.new_system_ms"] = mean("sim.new_system", 1e6)
	m["sim.step_self_s"] = float64(step.Self) / 1e9
	m["sim.step_ns_per_tick"] = float64(step.Self) / float64(lo.ticks)
	m["sim.inject_ns"] = mean("sim.inject", 1)
	m["sim.snapshot_ms"] = mean("sim.snapshot", 1e6)
	m["sim.restore_ms"] = mean("sim.restore", 1e6)
	m["sim.evaluate_s"] = 0
	m["sim.ticks"] = float64(lo.ticks)

	var ctrl memctrl.Stats
	var injections, recycled, arrivals, retired, peak, unblocks int64
	var shed, missed, retries, trips, downtime int64
	var acts, rds, wrs, refs int64
	for _, o := range outs {
		injections += o.injections
		recycled += o.pt.RecycledRequests
		arrivals += o.arrivals
		peak = max(peak, o.pt.PeakOutstanding)
		unblocks += o.unblocks
		shed += o.pt.Shed
		missed += o.pt.DeadlineMissed
		retries += o.pt.Retried
		if h := o.pt.Health; h != nil {
			trips += h.Trips
			downtime += h.DowntimeTicks
		}
		ctrl.Add(o.res.Ctrl)
		acts += o.res.Counts.ACTs
		rds += o.res.Counts.RDs
		wrs += o.res.Counts.WRs
		refs += o.res.Counts.REFs
		for _, app := range o.res.Apps {
			retired += app.Retired
		}
	}
	m["sim.peak_outstanding"] = float64(peak)
	m["sim.recycle_ratio"] = float64(recycled) / float64(injections)
	m["sim.shed"], m["sim.deadline_missed"], m["sim.retried"] = float64(shed), float64(missed), float64(retries)
	m["sim.frontend_wait_p99_ticks"] = ref.wait.Percentile(0.99)
	m["memctrl.service_p99_ticks"] = ref.service.Percentile(0.99)
	var maxRouted, sumRouted int64
	for _, sh := range ref.shards {
		maxRouted = max(maxRouted, sh.Routed)
		sumRouted += sh.Routed
	}
	m["sim.route_imbalance"] = float64(maxRouted) / (float64(sumRouted) / float64(len(ref.shards)))
	addCtrl(m, ctrl, unblocks)
	m["core.buffer_serve_rate"] = ref.res.Ctrl.BufferServeRate()
	m["core.predictor_accuracy"] = ref.res.Ctrl.PredictorAccuracy()
	m["dram.acts"], m["dram.reads"], m["dram.writes"], m["dram.refs"] = float64(acts), float64(rds), float64(wrs), float64(refs)
	m["cpu.minstr_per_s"] = 0
	if retired > 0 {
		m["cpu.minstr_per_s"] = float64(retired) / (float64(step.Self) / 1e9) / 1e6
	}
	m["cpu.rng_stall_frac"] = 0
	m["workload.arrival_ns"] = 0
	if arrivals > 0 {
		m["workload.arrival_ns"] = float64(st["workload.arrivals"].Self) / float64(arrivals)
	}
	m["workload.closedloop_ns"] = mean("workload.closedloop", 1)
	m["workload.trace_ns_per_op"] = traceReplay([]workload.Mix{spec.cfg.Background}, seed)
	words := int64(float64(ref.res.Ctrl.RNGRounds) * spec.cfg.Mech.RoundBits / 64)
	m["trng.word_ns"], m["trng.health_ns"] = trngReplay(words, seed)
	m["trng.trips"], m["trng.downtime_ticks"] = float64(trips), float64(downtime)
	m["metrics.hist_add_ns"], m["metrics.percentile_us"] = histReplay(ref.latencies)

	allocs, aticks, err := w.stepAllocs(ctx, seed)
	if err != nil {
		return nil, err
	}
	m["sim.step_allocs"] = float64(allocs) / float64(aticks) * 1e6

	var reportTimes []float64
	for range 5 {
		t := time.Now()
		if _, err := first.report.JSON(); err != nil {
			return nil, err
		}
		_ = first.report.Render()
		reportTimes = append(reportTimes, time.Since(t).Seconds()*1e3)
	}
	m["api.report_ms"] = median(reportTimes)
	lo.metrics = m
	return lo, nil
}

// addCtrl records the memory controller's summed counters.
func addCtrl(m map[string]float64, c memctrl.Stats, unblocks int64) {
	m["memctrl.rng_rounds"] = float64(c.RNGRounds)
	m["memctrl.rng_served"] = float64(c.RNGServed)
	m["memctrl.reads_served"] = float64(c.ReadsServed)
	m["memctrl.writes_served"] = float64(c.WritesServed)
	m["memctrl.unblock_events"] = float64(unblocks)
	m["memctrl.mode_switches"] = float64(c.ModeSwitches)
	m["memctrl.starvation_overrides"] = float64(c.StarvationOverrides)
}

// layers checks Figure 7's headline at seed 0 and, when full, runs the
// traced evaluation and the System-level re-drive.
func (w multicoreWorkload) layers(ctx context.Context, seed uint64, first *outcome, workers int, full bool) (*layerOut, error) {
	lo := &layerOut{}
	if seed == 0 {
		sim.ResetMemo()
		figs := sim.Figure7(ctx, w.instr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		drs := figs[0].Series[len(figs[0].Series)-1].Values
		if got := drs[len(drs)-1]; got != first.model.WSGmean {
			lo.diffs = append(lo.diffs, fmt.Sprintf("ws_gmean %v != sim.Figure7 GMEAN %v", first.model.WSGmean, got))
		}
	}
	if !full {
		return lo, nil
	}
	p := w.plan(seed)
	newLanes := func(epoch time.Time) []*lane {
		ls := make([]*lane, workers)
		for i := range ls {
			ls[i] = newLane(epoch)
		}
		return ls
	}
	sim.ResetMemo()
	t := time.Now()
	evalLanes := newLanes(t)
	res, err := evaluate(ctx, p.cfgs, workers, evalLanes)
	if err != nil {
		return nil, err
	}
	lo.wall = time.Since(t)
	if traced := p.outcome(res); !bytes.Equal(traced.digest, first.digest) {
		lo.diffs = append(lo.diffs, "traced evaluation: "+firstDiff(first.digest, traced.digest))
	}
	rdLanes := newLanes(time.Now())
	rd := w.redrive(ctx, p, first.results, workers, rdLanes)
	lo.diffs = append(lo.diffs, rd.diffs...)
	lo.lanes = append(evalLanes, rdLanes...)

	ev := selfTimes(evalLanes)
	st := selfTimes(rdLanes)
	step := st["sim.step"]
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["sim.new_system_ms"] = float64(st["sim.new_system"].Total) / float64(st["sim.new_system"].Count) / 1e6
	m["sim.step_self_s"] = float64(step.Self) / 1e9
	m["sim.step_ns_per_tick"] = float64(step.Self) / float64(rd.ticks)
	m["sim.evaluate_s"] = float64(ev["sim.evaluate"].Total) / 1e9
	m["sim.ticks"] = float64(rd.ticks)
	addCtrl(m, rd.ctrl, rd.unblocks)
	m["core.buffer_serve_rate"] = rd.drsCtrl.BufferServeRate()
	m["core.predictor_accuracy"] = rd.drsCtrl.PredictorAccuracy()
	m["dram.acts"], m["dram.reads"], m["dram.writes"], m["dram.refs"] =
		float64(rd.counts[0]), float64(rd.counts[1]), float64(rd.counts[2]), float64(rd.counts[3])
	m["cpu.minstr_per_s"] = float64(rd.retired) / (float64(step.Self) / 1e9) / 1e6
	m["cpu.rng_stall_frac"] = rd.stallFrac
	var mixes []workload.Mix
	for i := 0; i < len(p.cfgs); i += len(multicoreDesigns) {
		mixes = append(mixes, p.cfgs[i].Mix)
	}
	m["workload.trace_ns_per_op"] = traceReplay(mixes, seed)
	drsRounds := rd.drsCtrl.RNGRounds / int64(len(mixes))
	m["trng.word_ns"], m["trng.health_ns"] = trngReplay(int64(float64(drsRounds)*trng.DRaNGe().RoundBits/64), seed)
	allocs, aticks := w.stepAllocs(p)
	m["sim.step_allocs"] = float64(allocs) / float64(aticks) * 1e6
	lo.metrics = m
	return lo, nil
}
