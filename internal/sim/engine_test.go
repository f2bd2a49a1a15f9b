package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"drstrange/internal/cpu"
	"drstrange/internal/memctrl"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// The event-driven engine is proven safe by construction plus
// differential testing: every test here requires bit-identical results
// from the tick-skipping loop and the reference tick-by-tick loop.

// underEngine runs f with the engine forced to name, restoring the
// default afterwards.
func underEngine(name string, f func()) {
	SetEngine(name)
	defer SetEngine("")
	f()
}

// TestEngineDifferentialRunResult runs one simulation per corner of the
// design space under both engines and requires deeply equal results:
// every per-app stat, controller counter, energy figure, and tick
// count.
func TestEngineDifferentialRunResult(t *testing.T) {
	quac := trng.QUACTRNG()
	mix := func(name string, mbps float64, apps ...string) workload.Mix {
		return workload.Mix{Name: name, Apps: apps, RNGMbps: mbps}
	}
	// Budgets are sized so the long cases cross the periodic boundaries
	// tick-skipping must not blur: refresh every 1560 ticks, BLISS
	// blacklist clearing every 10000, starvation overrides at 100-tick
	// stall streaks.
	cases := []RunConfig{
		{Design: DesignOblivious, Mix: mix("soplex+rng", 5120, "soplex"), Instructions: 30000},
		{Design: DesignOblivious, Mix: mix("rng-alone", 2560), Instructions: 20000},
		{Design: DesignOblivious, Mix: mix("lbm-alone", 0, "lbm"), Instructions: 20000},
		{Design: DesignBLISS, Mix: mix("lbm+mcf+rng", 5120, "lbm", "mcf"), Instructions: 60000},
		{Design: DesignRNGAwareNoBuffer, Mix: mix("libq+rng", 1280, "libq"), Instructions: 20000},
		{Design: DesignGreedy, Mix: mix("ycsb0+rng", 5120, "ycsb0"), Instructions: 20000},
		{Design: DesignDRStrangeNoPred, Mix: mix("soplex+rng", 5120, "soplex"), BufferWords: 4, Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("soplex+rng", 5120, "soplex"), Instructions: 30000},
		{Design: DesignDRStrange, Mix: mix("povray+rng", 640, "povray"), Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("quac", 5120, "soplex"), Mech: quac, Instructions: 20000},
		{Design: DesignDRStrange, Mix: mix("prio", 5120, "lbm", "mcf"), Priorities: []int{1, 0, 0}, Instructions: 20000},
		{Design: DesignDRStrangeRL, Mix: mix("mcf+rng", 5120, "mcf"), Instructions: 20000},
		{Design: DesignDRStrangeNoLowUtil, Mix: mix("lbm+rng", 5120, "lbm"), Instructions: 20000},
	}
	for _, cfg := range cases {
		var ticked, event RunResult
		underEngine(EngineTicked, func() { ticked = Run(cfg) })
		underEngine(EngineEvent, func() { event = Run(cfg) })
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%v/%s: engines diverge\n ticked: %+v\n event:  %+v",
				cfg.Design, cfg.Mix.Name, ticked, event)
		}
		if event.TotalTicks < 300 {
			t.Errorf("%v/%s: run too short (%d ticks) to exercise the engine",
				cfg.Design, cfg.Mix.Name, event.TotalTicks)
		}
	}
}

// TestEngineDifferentialIdleProfile requires the idle-period callback
// stream (the Figure 5/18 profiling input) to be identical under both
// engines: same periods, same lengths, same order.
func TestEngineDifferentialIdleProfile(t *testing.T) {
	const instr = 4000
	for _, app := range []string{"ycsb0", "povray"} {
		mix := workload.Mix{Name: app, Apps: []string{app}}
		var ticked, event []float64
		underEngine(EngineTicked, func() { ticked = IdleProfile(mix, instr) })
		underEngine(EngineEvent, func() { event = IdleProfile(mix, instr) })
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%s: idle profiles diverge: ticked %d periods, event %d periods",
				app, len(ticked), len(event))
		}
	}
}

// TestGoldenFigureOutputIdenticalAcrossEngines is the golden-output
// regression gate: the rendered bytes of complete figure drivers must
// not change when the engine does. Figure 6 exercises the three-way
// design comparison (oblivious demand service, greedy fills, the full
// DR-STRaNGe stack); Figure 10 sweeps buffer sizes including the
// no-buffer RNG-aware corner.
func TestGoldenFigureOutputIdenticalAcrossEngines(t *testing.T) {
	const instr = 1200
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		driver func(context.Context, int64) []Figure
	}{
		{"fig6", Figure6},
		{"fig10", Figure10},
	} {
		var ticked, event string
		underEngine(EngineTicked, func() { ticked = RenderAll(tc.driver(ctx, instr)) })
		underEngine(EngineEvent, func() { event = RenderAll(tc.driver(ctx, instr)) })
		if ticked != event {
			t.Errorf("%s: rendered output differs between engines\n--- ticked ---\n%s\n--- event ---\n%s",
				tc.name, ticked, event)
		}
	}
}

// TestEngineDifferentialEvaluate covers the full derived-metric path —
// shared run, alone-run baselines, slowdown/unfairness/weighted-speedup
// arithmetic — on a refresh-crossing budget.
func TestEngineDifferentialEvaluate(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 20000,
	}
	var ticked, event WorkloadResult
	underEngine(EngineTicked, func() { ticked = Evaluate(cfg) })
	underEngine(EngineEvent, func() { event = Evaluate(cfg) })
	if !reflect.DeepEqual(ticked, event) {
		t.Errorf("Evaluate diverges\n ticked: %+v\n event:  %+v", ticked, event)
	}
}

// TestEngineLockstepStarvationCounter steps an event-engine System and
// a ticked one through the same serve point in serveSlice slices and
// requires equal results at every boundary. The point (DR-STRaNGe
// sharing one channel with mcf at 1280 Mb/s, seed 9) empties the RNG
// queue with the starvation counter mid-streak at tick 66688; the
// ticked engine resets the counter at the next tick, so a skip that
// only adds skipped ticks to it takes one starvation override too many
// later (tick 73713) and diverges from there on.
func TestEngineLockstepStarvationCounter(t *testing.T) {
	cfg := ServeConfig{
		Design:       DesignDRStrange,
		Background:   workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		Clients:      8,
		RequestBytes: 8,
		Arrival:      workload.ArrivalPoisson,
		WarmupTicks:  20_000,
		WindowTicks:  1_000_000,
		Seed:         9,
		Shards:       1,
		Router:       RouterRoundRobin,
		Health:       "off",
		Admission:    AdmissionNone,
		Warm:         "off",
	}.Normalized()
	const mbps = 1280
	ratePerTick := mbps * 1e6 / trng.MemCyclesPerSecond / 64
	type side struct {
		sys *System
		src *openArrivals
	}
	mk := func(engine string) side {
		var sys *System
		underEngine(engine, func() { sys = NewSystem(servePointRunConfig(cfg)) })
		sys.OnInjectionComplete(func(*InjectedRequest) {})
		arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick, cfg.Burstiness, cfg.Seed^math.Float64bits(mbps))
		if err != nil {
			t.Fatal(err)
		}
		return side{sys, &openArrivals{chunk: workload.NewChunked(arr), clients: cfg.Clients}}
	}
	event, ticked := mk(EngineEvent), mk(EngineTicked)
	end := cfg.WarmupTicks + cfg.WindowTicks
	for event.sys.Now() < 80_000 {
		for _, sd := range []side{event, ticked} {
			sys := sd.sys
			sys.StepTo(sd.src.feed(sys.Now(), end, func(tick int64, client, _, _ int) {
				sys.InjectRNG(client, tick, 1)
			}))
		}
		ev, tk := event.sys.Result(), ticked.sys.Result()
		if !reflect.DeepEqual(ev, tk) {
			t.Fatalf("engines diverge at the boundary before tick %d\n ticked: %+v\n event:  %+v",
				event.sys.Now(), tk.Ctrl, ev.Ctrl)
		}
	}
}

// tickHarness builds the component graph exactly as Run does, exposing
// the raw tick loop for the allocation test.
type tickHarness struct {
	ctrl  *memctrl.Controller
	cores []*cpu.Core
	now   int64
}

func newTickHarness(t *testing.T, d Design, mix workload.Mix) *tickHarness {
	t.Helper()
	mcfg := buildConfig(d, mix.Cores(), trng.DRaNGe(), 0, nil)
	ctrl, err := memctrl.NewController(mcfg)
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	h := &tickHarness{ctrl: ctrl}
	ccfg := cpu.DefaultConfig()
	for i, app := range mix.Apps {
		p := workload.MustByName(app)
		tr := p.NewTrace(mcfg.Geom, 1000+i*4096, uint64(i)*7919)
		h.cores = append(h.cores, cpu.NewCore(i, tr, ctrl, ccfg, 1<<60))
	}
	if mix.RNGMbps > 0 {
		rc := workload.DefaultRNGTraceConfig(mix.RNGMbps)
		tr := workload.NewRNGTrace(rc, mcfg.Geom)
		h.cores = append(h.cores, cpu.NewCore(len(h.cores), tr, ctrl, ccfg, 1<<60))
	}
	return h
}

func (h *tickHarness) run(ticks int64) {
	end := h.now + ticks
	for ; h.now < end; h.now++ {
		h.ctrl.Tick(h.now)
		for _, c := range h.cores {
			c.Tick(h.now)
		}
	}
}

// TestHotLoopZeroAllocs asserts the acceptance criterion directly: once
// queues, rings, and the request freelist reach steady state, the tick
// loop performs zero heap allocations — across the oblivious baseline
// (demand-mode churn) and the full DR-STRaNGe design (buffer serves,
// fills, predictor consults).
func TestHotLoopZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady state needs a long warmup")
	}
	for _, tc := range []struct {
		name string
		d    Design
		mix  workload.Mix
	}{
		{"oblivious", DesignOblivious, workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}},
		{"drstrange", DesignDRStrange, workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120}},
		{"greedy", DesignGreedy, workload.Mix{Name: "ycsb0+rng", Apps: []string{"ycsb0"}, RNGMbps: 2560}},
	} {
		h := newTickHarness(t, tc.d, tc.mix)
		h.run(50000) // reach steady-state queue/freelist occupancy
		avg := testing.AllocsPerRun(20, func() { h.run(2000) })
		if avg != 0 {
			t.Errorf("%s: %v allocs per 2000-tick batch in steady state, want 0", tc.name, avg)
		}
	}
}

// TestStepToZeroAllocs pins the same property on the public stepping
// path — NewSystem, InjectRNG with a completion hook, StepTo — that the
// serving layer drives: once the injection freelist, the front-end
// queues and the controller reach steady state, a 2000-tick batch of
// injections and stepping allocates nothing, on one shard and on four
// join-shortest-queue shards, with and without mcf in the background.
func TestStepToZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady state needs a long warmup")
	}
	for _, tc := range []struct {
		name   string
		shards int
		apps   []string
	}{
		{"1shard", 1, nil},
		{"1shard+mcf", 1, []string{"mcf"}},
		{"4shard-jsq", 4, nil},
		{"4shard-jsq+mcf", 4, []string{"mcf"}},
	} {
		sys := NewSystem(RunConfig{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: tc.name, Apps: tc.apps},
			Instructions: serveTarget,
			Clients:      8,
			Shards:       tc.shards,
			Router:       RouterJSQ,
		})
		sys.OnInjectionComplete(func(*InjectedRequest) {})
		n := 0
		batch := func() {
			start := sys.Now()
			for at := start; at < start+2000; at += 25 {
				sys.InjectRNG(n%8, at, 1)
				n++
			}
			sys.StepTo(start + 1999)
		}
		for range 50 {
			batch() // reach steady-state queue/freelist occupancy
		}
		if avg := testing.AllocsPerRun(20, batch); avg != 0 {
			t.Errorf("%s: %v allocs per 2000-tick batch in steady state, want 0", tc.name, avg)
		}
	}
}
