package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"drstrange"
	"drstrange/internal/metrics"
	"drstrange/internal/sim"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// serveWorkload is a serve sweep run through drstrange.Run, re-driven
// point by point through the public sim.System API for its trace.
type serveWorkload struct {
	scenario func(seed uint64) drstrange.Scenario
	// refLoad is the offered load of the reference point: the
	// DR-STRaNGe point whose p99 is reported and whose per-request
	// distributions feed the per-layer metrics.
	refLoad float64
}

// The design whose outcomes the modelled metrics report; every serve
// scenario lists it last, after the RNG-oblivious baseline.
const refDesign = "drstrange"

func pinned(seed uint64) drstrange.Scenario {
	return drstrange.NewScenario(drstrange.KindServe,
		drstrange.WithSeed(seed),
		drstrange.WithDesigns("oblivious", refDesign),
		drstrange.WithMechanism("drange"),
		drstrange.WithArrival("poisson", 0),
		drstrange.WithRequestBytes(8),
		drstrange.WithClients(8),
		drstrange.WithWarmupTicks(20_000),
		drstrange.WithWindowTicks(1_000_000),
		drstrange.WithWarm("off"),
	)
}

// contendedScenario is the paper's interference scenario: open-loop
// Poisson RNG requests sharing one channel with mcf, periodically
// checkpointed and restored.
func contendedScenario(seed uint64) drstrange.Scenario {
	sc := pinned(seed)
	sc.Apps = []string{"mcf"}
	sc.Loads = []float64{320, 1280, 2560}
	sc.Shards = 1
	sc.Router = sim.RouterRoundRobin
	sc.Health = "off"
	sc.Admission = sim.AdmissionNone
	sc.Checkpoint = 50_000
	return sc
}

// overloadScenario is closed-loop keygen+bulk traffic at 1x and 2x the
// capacity of four D-RaNGe shards behind join-shortest-queue routing,
// with depth-threshold admission and health monitoring on a clean
// entropy stream.
func overloadScenario(seed uint64) drstrange.Scenario {
	sc := pinned(seed)
	sc.Loads = []float64{10240, 20480}
	sc.ThinkTicks = 1000
	sc.Classes = []string{sim.ClassKeygen, sim.ClassBulk}
	sc.Admission = sim.AdmissionThreshold
	sc.Shards = 4
	sc.Router = sim.RouterJSQ
	sc.Health = "on"
	return sc
}

// serveSpec is a serve scenario lowered onto the simulator's config
// with every field resolved explicitly (no environment defaults), plus
// the design set and loads.
type serveSpec struct {
	cfg     sim.ServeConfig
	designs []sim.Design
	loads   []float64
}

func resolveServe(sc drstrange.Scenario) (serveSpec, error) {
	n := sc.Normalized()
	mech, ok := trng.ByName(n.Mechanism)
	if !ok {
		return serveSpec{}, fmt.Errorf("unknown mechanism %q", n.Mechanism)
	}
	spec := serveSpec{loads: n.Loads}
	for _, name := range n.Designs {
		d, ok := sim.DesignByName(name)
		if !ok {
			return serveSpec{}, fmt.Errorf("unknown design %q", name)
		}
		spec.designs = append(spec.designs, d)
	}
	spec.cfg = sim.ServeConfig{
		Mech:         mech,
		BufferWords:  n.BufferWords,
		Background:   workload.Mix{Name: strings.Join(n.Apps, "+"), Apps: n.Apps},
		Clients:      n.Clients,
		ThinkTicks:   n.ThinkTicks,
		Classes:      n.Classes,
		Admission:    n.Admission,
		AdmitDepth:   sim.DefaultAdmitDepth,
		RequestBytes: n.RequestBytes,
		Arrival:      n.Arrival,
		Burstiness:   n.Burstiness,
		WarmupTicks:  *n.WarmupTicks,
		WindowTicks:  n.WindowTicks,
		Seed:         n.Seed,
		Shards:       n.Shards,
		Router:       n.Router,
		Health:       n.Health,
		Fault:        n.Fault,
		Warm:         n.Warm,
		Checkpoint:   n.Checkpoint,
	}
	if spec.cfg.ThinkTicks > 0 {
		// Closed-loop points never checkpoint (the client schedule lives
		// outside the System); the simulator drops the interval too.
		spec.cfg.Checkpoint = 0
	}
	return spec, nil
}

func classTable(names []string) []sim.RequestClass {
	if len(names) == 0 {
		return nil
	}
	out := make([]sim.RequestClass, len(names))
	for i, name := range names {
		out[i], _ = sim.ClassByName(name)
	}
	return out
}

// pointRunConfig is the RunConfig a serve point's System is built from.
func pointRunConfig(cfg sim.ServeConfig, mbps float64) sim.RunConfig {
	rcfg := sim.RunConfig{
		Design:       cfg.Design,
		Mix:          cfg.Background,
		Mech:         cfg.Mech,
		BufferWords:  cfg.BufferWords,
		Instructions: 1 << 40, // background cores never finish inside a serve point
		Seed:         cfg.Seed,
		Clients:      cfg.Clients,
		Shards:       cfg.Shards,
		Router:       cfg.Router,
		Classes:      classTable(cfg.Classes),
		Admission:    cfg.Admission,
		AdmitDepth:   cfg.AdmitDepth,
	}
	if cfg.ThinkTicks > 0 {
		rcfg.Clients = population(cfg, mbps)
	}
	if cfg.Health == "on" {
		rcfg.Health = trng.DefaultHealthConfig()
		rcfg.Fault = trng.DefaultFaultProfile(cfg.Fault)
	}
	return rcfg
}

// ratePerTick converts an offered load into requests per memory tick.
func ratePerTick(cfg sim.ServeConfig, mbps float64) float64 {
	return mbps * 1e6 / trng.MemCyclesPerSecond / float64(cfg.RequestBytes*8)
}

// population sizes a closed-loop point's clients by Little's law.
func population(cfg sim.ServeConfig, mbps float64) int {
	pop := int(math.Round(ratePerTick(cfg, mbps) * float64(cfg.ThinkTicks)))
	return max(pop, 1)
}

func (w *serveWorkload) setup(seed uint64) (validate time.Duration, err error) {
	sc := w.scenario(seed)
	t := time.Now()
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	validate = time.Since(t)
	spec, err := resolveServe(sc)
	if err != nil {
		return 0, err
	}
	cfg := spec.cfg
	cfg.Design = spec.designs[0]
	sim.NewSystem(pointRunConfig(cfg, spec.loads[0]))
	return validate, nil
}

func (w *serveWorkload) run(ctx context.Context, seed uint64, engine string, workers int) (*outcome, error) {
	sc := w.scenario(seed)
	sc.Engine, sc.Workers = engine, workers
	rep, err := drstrange.Run(ctx, sc)
	if err != nil {
		return nil, err
	}
	return w.outcome(rep)
}

// outcome checks a serve report and extracts its modelled metrics.
func (w *serveWorkload) outcome(rep *drstrange.Report) (*outcome, error) {
	canon := *rep
	canon.Scenario.Engine, canon.Scenario.Workers = "", 0
	digest, err := canon.JSON()
	if err != nil {
		return nil, fmt.Errorf("serializing report: %w", err)
	}
	o := &outcome{digest: digest, report: rep}
	var failed, submitted int64
	for d, ds := range rep.Serve {
		fig := rep.Figures[d]
		for i, pt := range ds.Points {
			o.ops++
			row := fig.Series[i].Values
			where := fmt.Sprintf("%s @%g Mb/s", ds.Design, pt.OfferedMbps)
			if pt.Submitted < pt.Completed {
				o.problems = append(o.problems, fmt.Sprintf("%s: submitted %d < completed %d", where, pt.Submitted, pt.Completed))
			}
			if !(row[2] <= row[3] && row[3] <= row[4] && row[4] <= row[5]) {
				o.problems = append(o.problems, fmt.Sprintf("%s: percentiles out of order %v", where, row[2:6]))
			}
			for _, sh := range pt.PerShard {
				if sh.Routed != sh.Completed+sh.Shed+sh.DeadlineMissed+sh.FailedRequests {
					o.problems = append(o.problems, fmt.Sprintf("%s shard %d: routed %d != completed %d + shed %d + missed %d + failed %d",
						where, sh.Shard, sh.Routed, sh.Completed, sh.Shed, sh.DeadlineMissed, sh.FailedRequests))
				}
			}
			submitted += pt.Submitted
			failed += pt.Shed + pt.DeadlineMissed
			if pt.Health != nil {
				failed += pt.Health.FailedRequests
			}
		}
	}
	ref, refIdx := len(rep.Figures)-1, w.refIndex(rep)
	if ref < 0 || refIdx < 0 {
		return nil, fmt.Errorf("report has no %g Mb/s reference point", w.refLoad)
	}
	fig := rep.Figures[ref]
	o.model.P99ns = fig.Series[refIdx].Values[4]
	o.model.AchievedMbps = fig.Series[len(fig.Series)-1].Values[1]
	for j, label := range fig.Labels {
		if label == "p99:"+sim.ClassKeygen {
			o.model.KeygenP99ns = fig.Series[refIdx].Values[j]
		}
	}
	if submitted > 0 {
		o.model.FailFrac = float64(failed) / float64(submitted)
	}
	return o, nil
}

func (w *serveWorkload) refIndex(rep *drstrange.Report) int {
	if len(rep.Serve) == 0 {
		return -1
	}
	for i, pt := range rep.Serve[len(rep.Serve)-1].Points {
		if pt.OfferedMbps == w.refLoad {
			return i
		}
	}
	return -1
}

// pointOut is one re-driven serve point: the point stats as the
// serving layer computes them, plus the layer counters read from the
// System at the end of the point.
type pointOut struct {
	design     sim.Design
	mbps       float64
	pt         sim.ServePoint
	ticks      int64
	res        sim.RunResult
	shards     []sim.ShardStat
	unblocks   int64 // shard 0's controller
	injections int64
	arrivals   int64
	// Reference point only: front-end wait (AcceptTick - SubmitTick)
	// and controller service (FinishTick - AcceptTick) of measured
	// completions, and their latencies, in ticks.
	wait, service *metrics.Histogram
	latencies     []int64
	stepAllocs    uint64 // heap objects allocated while serving (lanes with countAllocs only)
}

// serveAcc folds completions into a point's stats exactly as the
// serving layer does, timing its calls into the metrics layer.
type serveAcc struct {
	cfg      sim.ServeConfig
	classes  []sim.RequestClass
	reqBits  float64
	end      int64
	l        *lane
	within   string        // aggregate the completion hook runs inside ("" when StepTo is a span)
	hookTime time.Duration // timed sub-calls since the last reset (closed-loop StepTo child time)

	p                                           sim.ServePoint
	hist                                        metrics.Histogram
	sumTicks, bufWords, doneWords, inWindowDone int64
	cs                                          []classAcc
	wait, service                               *metrics.Histogram
	latencies                                   []int64
}

type classAcc struct {
	submitted, completed, shed, missed, retried, late, sumTicks int64
	goodBits                                                    float64
	hist                                                        metrics.Histogram
}

func (a *serveAcc) timed(name string, f func()) {
	a.hookTime += a.l.call(name, a.within, f)
}

// complete folds one finished request and reports whether it succeeded.
func (a *serveAcc) complete(r *sim.InjectedRequest) bool {
	warm := a.cfg.WarmupTicks
	if r.Failed || r.Shed || r.Missed {
		if !r.Failed && r.SubmitTick >= warm {
			if r.Shed {
				a.p.Shed++
				if a.cs != nil && r.Class >= 0 {
					a.cs[r.Class].shed++
				}
			} else {
				a.p.DeadlineMissed++
				if a.cs != nil && r.Class >= 0 {
					a.cs[r.Class].missed++
				}
			}
		}
		return false
	}
	if r.FinishTick >= warm && r.FinishTick < a.end {
		a.inWindowDone++
	}
	if r.SubmitTick < warm {
		return true
	}
	a.p.Completed++
	l := r.Latency()
	a.timed("metrics.hist_add", func() { a.hist.Add(l) })
	a.sumTicks += l
	a.bufWords += int64(r.BufferWords)
	a.doneWords += int64(r.Words)
	if a.cs != nil && r.Class >= 0 {
		c := &a.cs[r.Class]
		c.completed++
		a.timed("metrics.hist_add", func() { c.hist.Add(l) })
		c.sumTicks += l
		dl := a.classes[r.Class].DeadlineTicks
		late := dl > 0 && l > dl
		if late {
			c.late++
		}
		if r.FinishTick >= warm && r.FinishTick < a.end && !late {
			c.goodBits += a.reqBits
		}
	}
	if a.wait != nil {
		a.timed("bench.extra", func() {
			a.wait.Add(r.AcceptTick - r.SubmitTick)
			a.service.Add(r.FinishTick - r.AcceptTick)
			a.latencies = append(a.latencies, l)
		})
	}
	return true
}

// submitted counts one measured-window submission.
func (a *serveAcc) submitted(class, attempt int) {
	a.p.Submitted++
	if attempt > 0 {
		a.p.Retried++
	}
	if a.cs != nil {
		c := &a.cs[class]
		c.submitted++
		if attempt > 0 {
			c.retried++
		}
	}
}

// finish computes the point's summary stats from the accumulators.
func (a *serveAcc) finish(sys *sim.System) sim.ServePoint {
	a.within = "" // the percentile calls below run outside any StepTo
	p := a.p
	p.AchievedMbps = float64(a.inWindowDone) * a.reqBits / float64(a.cfg.WindowTicks) * trng.MemCyclesPerSecond / 1e6
	if a.doneWords > 0 {
		p.BufferHitRate = float64(a.bufWords) / float64(a.doneWords)
	}
	pct := func(h *metrics.Histogram, q float64) (v float64) {
		a.timed("metrics.percentile", func() { v = h.Percentile(q) })
		return v
	}
	if a.hist.N() > 0 {
		p.MeanTicks = float64(a.sumTicks) / float64(a.hist.N())
		p.P50 = pct(&a.hist, 0.50)
		p.P95 = pct(&a.hist, 0.95)
		p.P99 = pct(&a.hist, 0.99)
		p.P999 = pct(&a.hist, 0.999)
	}
	p.PeakOutstanding = int64(sys.PeakOutstandingInjections())
	p.RecycledRequests = sys.RecycledInjections()
	p.LatencyBins = a.hist.Bins()
	if a.cfg.Shards > 1 {
		p.Shards, p.Router = a.cfg.Shards, a.cfg.Router
		p.PerShard = sys.ShardStats()
	}
	if a.cfg.Health == "on" {
		h := sys.HealthStats(a.cfg.WindowTicks)
		p.Health = &h
	}
	for i := range a.cs {
		c := &a.cs[i]
		st := sim.ClassStat{
			Class: a.classes[i].Name, Priority: a.classes[i].Priority, DeadlineTicks: a.classes[i].DeadlineTicks,
			Submitted: c.submitted, Completed: c.completed, Shed: c.shed, DeadlineMissed: c.missed, Retried: c.retried,
		}
		if c.hist.N() > 0 {
			st.MeanTicks = float64(c.sumTicks) / float64(c.hist.N())
			st.P50 = pct(&c.hist, 0.50)
			st.P99 = pct(&c.hist, 0.99)
		}
		st.GoodputMbps = c.goodBits / float64(a.cfg.WindowTicks) * trng.MemCyclesPerSecond / 1e6
		if den := c.completed + c.missed; den > 0 {
			st.ViolationFrac = float64(c.late+c.missed) / float64(den)
		}
		p.PerClass = append(p.PerClass, st)
	}
	return p
}

// The serving layer's slice lengths: open-loop points advance at most
// openSlice ticks per StepTo, and both loops drain in drainSlice+1 tick
// steps.
const (
	openSlice  = 1 << 13
	drainSlice = 4095
)

// tracedPoint re-drives one serve point through the System API,
// recording spans on l. ref marks the reference point, whose
// per-request distributions are collected.
func tracedPoint(ctx context.Context, l *lane, cfg sim.ServeConfig, mbps float64, ref bool) (pointOut, error) {
	root := l.begin("bench.point")
	defer l.end(root)
	a := &serveAcc{
		cfg:     cfg,
		classes: classTable(cfg.Classes),
		reqBits: float64(cfg.RequestBytes * 8),
		end:     cfg.WarmupTicks + cfg.WindowTicks,
		l:       l,
		p:       sim.ServePoint{OfferedMbps: mbps},
	}
	if len(a.classes) > 0 {
		a.cs = make([]classAcc, len(a.classes))
	}
	if ref {
		a.wait, a.service = &metrics.Histogram{}, &metrics.Histogram{}
	}
	out := pointOut{design: cfg.Design, mbps: mbps}
	id := l.begin("sim.new_system")
	sys := sim.NewSystem(pointRunConfig(cfg, mbps))
	l.end(id)
	if cfg.Health == "on" {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, a.end)
	}
	words := (cfg.RequestBytes + 7) / 8
	seed := cfg.Seed ^ math.Float64bits(mbps)
	inject := func(sys *sim.System, client int, at int64, class int) {
		l.call("sim.inject", "", func() {
			if a.classes != nil {
				sys.InjectRNGClass(client, at, words, class)
			} else {
				sys.InjectRNG(client, at, words)
			}
		})
		out.injections++
	}
	var m0, m1 runtime.MemStats
	if l.countAllocs {
		runtime.ReadMemStats(&m0)
	}
	var err error
	if cfg.ThinkTicks > 0 {
		sys, err = closedLoop(ctx, l, a, sys, cfg, mbps, seed, inject)
	} else {
		sys, err = openLoop(ctx, l, a, sys, cfg, mbps, seed, inject, &out.arrivals)
	}
	if err != nil {
		return pointOut{}, err
	}
	if l.countAllocs {
		runtime.ReadMemStats(&m1)
		out.stepAllocs = m1.Mallocs - m0.Mallocs
	}
	out.pt = a.finish(sys)
	out.ticks = sys.Now()
	out.res = sys.Result()
	out.shards = sys.ShardStats()
	out.unblocks = sys.Controller().UnblockEvents()
	out.wait, out.service, out.latencies = a.wait, a.service, a.latencies
	return out, nil
}

// openLoop feeds Poisson arrivals slice by slice, checkpointing and
// restoring the System every cfg.Checkpoint ticks, then drains.
func openLoop(ctx context.Context, l *lane, a *serveAcc, sys *sim.System, cfg sim.ServeConfig, mbps float64, seed uint64,
	inject func(sys *sim.System, client int, at int64, class int), arrivals *int64) (*sim.System, error) {
	arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick(cfg, mbps), cfg.Burstiness, seed)
	if err != nil {
		return nil, err
	}
	hook := func(r *sim.InjectedRequest) { a.complete(r) }
	sys.OnInjectionComplete(hook)
	nextCkpt := int64(1) << 62
	if cfg.Checkpoint > 0 {
		nextCkpt = sys.Now() + cfg.Checkpoint
	}
	chunk := workload.NewChunked(arr)
	reqIdx := 0
	for sys.Now() < a.end {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target := min(sys.Now()+openSlice, a.end-1)
		id := l.begin("workload.arrivals")
		chunk.TakeThrough(target, a.end, func(tick int64) {
			class := 0
			if a.classes != nil {
				class = reqIdx % len(a.classes)
			}
			if tick >= cfg.WarmupTicks {
				a.submitted(class, 0)
			}
			inject(sys, reqIdx%cfg.Clients, tick, class)
			reqIdx++
			*arrivals++
		})
		l.end(id)
		id = l.begin("sim.step")
		sys.StepTo(target)
		l.end(id)
		if sys.Now() >= nextCkpt {
			id = l.begin("sim.snapshot")
			img := sys.Snapshot()
			l.end(id)
			id = l.begin("sim.restore")
			sys = sim.RestoreSystem(img)
			l.end(id)
			sys.OnInjectionComplete(hook)
			nextCkpt = sys.Now() + cfg.Checkpoint
		}
	}
	horizon := a.end + 20*cfg.WindowTicks
	for sys.OutstandingInjections() > 0 && sys.Now() < horizon {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := l.begin("sim.step")
		sys.StepTo(sys.Now() + drainSlice)
		l.end(id)
	}
	return sys, nil
}

// closedLoop drives the point's client population: submit at wake-up,
// wait for completion, think or back off, submit again. StepTo calls
// here are often one tick long, so they are aggregated, with the
// completion hook's timed calls as their child time.
func closedLoop(ctx context.Context, l *lane, a *serveAcc, sys *sim.System, cfg sim.ServeConfig, mbps float64, seed uint64,
	inject func(sys *sim.System, client int, at int64, class int)) (*sim.System, error) {
	pop := population(cfg, mbps)
	a.p.Population = pop
	var cl *workload.ClosedLoop
	clCall := func(f func()) { l.call("workload.closedloop", "", f) }
	clCall(func() { cl = workload.NewClosedLoop(pop, cfg.ThinkTicks, seed) })
	a.within = "sim.step"
	sys.OnInjectionComplete(func(r *sim.InjectedRequest) {
		ok := a.complete(r)
		a.timed("workload.closedloop", func() {
			if ok {
				cl.OnSuccess(r.Client, r.FinishTick)
			} else {
				cl.OnFailure(r.Client, r.FinishTick)
			}
		})
	})
	step := func(target int64) {
		if l.off {
			sys.StepTo(target)
			return
		}
		a.hookTime = 0
		t := time.Now()
		sys.StepTo(target)
		l.add("sim.step", "", time.Since(t), a.hookTime)
	}
	slice := min(max(cfg.ThinkTicks/4, 64), openSlice)
	for sys.Now() < a.end {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := sys.Now()
		for {
			var client, attempt int
			var ok bool
			clCall(func() { client, attempt, ok = cl.PopReady(now) })
			if !ok {
				break
			}
			class := 0
			if a.classes != nil {
				class = client % len(a.classes)
			}
			if now >= cfg.WarmupTicks {
				a.submitted(class, attempt)
			}
			inject(sys, client, now, class)
		}
		target := now + slice
		var nr int64
		clCall(func() { nr = cl.NextReady() })
		if nr <= target {
			target = nr - 1
		}
		target = max(min(target, a.end-1), now)
		step(target)
	}
	horizon := a.end + 20*cfg.WindowTicks
	for sys.OutstandingInjections() > 0 && sys.Now() < horizon {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step(sys.Now() + drainSlice)
	}
	return sys, nil
}

// trace re-drives every point of the sweep, workers points at a time,
// each worker on its own lane; record turns span recording on.
func (w *serveWorkload) trace(ctx context.Context, seed uint64, workers int, epoch time.Time, record bool) ([]pointOut, []*lane, error) {
	spec, err := resolveServe(w.scenario(seed))
	if err != nil {
		return nil, nil, err
	}
	type job struct {
		cfg  sim.ServeConfig
		mbps float64
		ref  bool
	}
	var jobs []job
	for _, d := range spec.designs {
		for _, mbps := range spec.loads {
			c := spec.cfg
			c.Design = d
			jobs = append(jobs, job{c, mbps, record && d == spec.designs[len(spec.designs)-1] && mbps == w.refLoad})
		}
	}
	outs := make([]pointOut, len(jobs))
	errs := make([]error, len(jobs))
	lanes := make([]*lane, workers)
	for k := range lanes {
		lanes[k] = newLane(epoch)
		lanes[k].off = !record
	}
	parallel(workers, len(jobs), func(k, i int) {
		lanes[k].point = i
		outs[i], errs[i] = tracedPoint(ctx, lanes[k], jobs[i].cfg, jobs[i].mbps, jobs[i].ref)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return outs, lanes, nil
}

// stepAllocs re-drives the reference point alone and counts the heap
// objects allocated while it serves — from the built System's first
// injection to the end of the drain, construction excluded. The replay
// is sequential, so no other goroutine's allocations are counted.
func (w *serveWorkload) stepAllocs(ctx context.Context, seed uint64) (allocs uint64, ticks int64, err error) {
	spec, err := resolveServe(w.scenario(seed))
	if err != nil {
		return 0, 0, err
	}
	cfg := spec.cfg
	cfg.Design = spec.designs[len(spec.designs)-1]
	l := newLane(time.Now())
	l.off, l.countAllocs = true, true
	out, err := tracedPoint(ctx, l, cfg, w.refLoad, false)
	if err != nil {
		return 0, 0, err
	}
	return out.stepAllocs, out.ticks, nil
}

// divergence compares the re-driven points with the untraced report,
// point by point: the public per-point stats and every figure value.
func divergence(rep *drstrange.Report, spec serveSpec, outs []pointOut) []string {
	var diffs []string
	i := 0
	for d := range spec.designs {
		for j := range spec.loads {
			o := outs[i]
			i++
			if d >= len(rep.Serve) || j >= len(rep.Serve[d].Points) {
				diffs = append(diffs, fmt.Sprintf("report lacks %s @%g Mb/s", o.design, o.mbps))
				continue
			}
			got, _ := json.Marshal(publicStats(o.pt))
			want, _ := json.Marshal(rep.Serve[d].Points[j])
			if string(got) != string(want) {
				diffs = append(diffs, fmt.Sprintf("%s @%g Mb/s stats: traced %s, report %s", o.design, o.mbps, got, want))
			}
			gotRow, wantRow := figureRow(spec.cfg, o.pt), rep.Figures[d].Series[j].Values
			if !sameFloats(gotRow, wantRow) {
				diffs = append(diffs, fmt.Sprintf("%s @%g Mb/s figure row: traced %v, report %v", o.design, o.mbps, gotRow, wantRow))
			}
		}
	}
	return diffs
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// figureRow is the point's row of the serve figure, column for column.
func figureRow(cfg sim.ServeConfig, pt sim.ServePoint) []float64 {
	served := 0.0
	if pt.Submitted > 0 {
		served = float64(pt.Completed) / float64(pt.Submitted)
	}
	v := []float64{pt.OfferedMbps, pt.AchievedMbps, pt.P50 * sim.TickNanos, pt.P95 * sim.TickNanos,
		pt.P99 * sim.TickNanos, pt.P999 * sim.TickNanos, pt.BufferHitRate, served}
	if cfg.Fault != "" {
		h := sim.ServeHealth{}
		if pt.Health != nil {
			h = *pt.Health
		}
		v = append(v, h.Nines, float64(h.Trips), float64(h.DowntimeTicks), float64(h.FailedRequests), float64(h.ReroutedRequests))
	}
	if cfg.ThinkTicks > 0 {
		v = append(v, float64(pt.Population), float64(pt.Retried), float64(pt.Shed))
	}
	for i := range cfg.Classes {
		var c sim.ClassStat
		if i < len(pt.PerClass) {
			c = pt.PerClass[i]
		}
		v = append(v, c.P99*sim.TickNanos, c.ViolationFrac, c.GoodputMbps, float64(c.Shed))
	}
	return v
}

// publicStats is the report's public view of a serve point.
func publicStats(pt sim.ServePoint) drstrange.ServePointStats {
	out := drstrange.ServePointStats{
		OfferedMbps: pt.OfferedMbps, Submitted: pt.Submitted, Completed: pt.Completed,
		PeakOutstanding: pt.PeakOutstanding, RecycledRequests: pt.RecycledRequests, LatencyBins: pt.LatencyBins,
		Population: pt.Population, Shed: pt.Shed, DeadlineMissed: pt.DeadlineMissed, Retried: pt.Retried,
	}
	for _, sh := range pt.PerShard {
		out.PerShard = append(out.PerShard, drstrange.ShardPointStats{
			Shard: sh.Shard, Routed: sh.Routed, Completed: sh.Completed, PeakOutstanding: int64(sh.PeakLive),
			BufferHitRate: sh.BufferHitRate, Trips: sh.Trips, FirstTripTick: sh.FirstTripTick,
			DowntimeTicks: sh.DowntimeTicks, FailedRequests: sh.FailedRequests, ReroutedRequests: sh.ReroutedRequests,
			Shed: sh.Shed, DeadlineMissed: sh.DeadlineMissed,
		})
	}
	for _, c := range pt.PerClass {
		out.PerClass = append(out.PerClass, drstrange.ClassPointStats{
			Class: c.Class, Priority: c.Priority, DeadlineTicks: c.DeadlineTicks, Submitted: c.Submitted,
			Completed: c.Completed, Shed: c.Shed, DeadlineMissed: c.DeadlineMissed, Retried: c.Retried,
			MeanTicks: c.MeanTicks, P50: c.P50, P99: c.P99, GoodputMbps: c.GoodputMbps, ViolationFrac: c.ViolationFrac,
		})
	}
	if h := pt.Health; h != nil {
		out.Health = &drstrange.ServeHealthStats{
			Trips: h.Trips, DowntimeTicks: h.DowntimeTicks, FailedRequests: h.FailedRequests,
			ReroutedRequests: h.ReroutedRequests, Availability: h.Availability, Nines: h.Nines,
		}
	}
	return out
}
