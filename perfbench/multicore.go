package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"drstrange/internal/memctrl"
	"drstrange/internal/metrics"
	"drstrange/internal/sim"
	"drstrange/internal/workload"
)

// multicoreInstr is the per-core instruction budget of the multicore
// workload: the paper figures' default.
const multicoreInstr = 100_000

// multicoreDesigns are Figure 7's designs; the first is the baseline the
// others are normalised to.
var multicoreDesigns = []sim.Design{sim.DesignOblivious, sim.DesignGreedy, sim.DesignDRStrange}

// multicorePlan is Figure 7's set of simulations at one seed: every mix
// of every workload group under every design, in group, mix, design
// order.
type multicorePlan struct {
	groups  []string
	groupOf []int // per config
	cfgs    []sim.RunConfig
}

func newMulticorePlan(seed uint64, instr int64) multicorePlan {
	var p multicorePlan
	add := func(label string, mixes []workload.Mix) {
		gi := len(p.groups)
		p.groups = append(p.groups, label)
		for _, m := range mixes {
			for _, d := range multicoreDesigns {
				p.groupOf = append(p.groupOf, gi)
				p.cfgs = append(p.cfgs, sim.RunConfig{Design: d, Mix: m, Instructions: instr, Seed: seed})
			}
		}
	}
	four := workload.FourCoreGroups()
	for _, g := range workload.FourCoreGroupNames {
		add(g, four[g])
	}
	for _, cores := range []int{4, 8, 16} {
		mg := workload.MultiCoreGroups(cores)
		for _, class := range []string{"L", "M", "H"} {
			add(fmt.Sprintf("%s(%d)", class, cores), mg[class])
		}
	}
	return p
}

// multicoreWorkload is Figure 7's evaluation through sim.EvaluateCtx.
type multicoreWorkload struct {
	instr int64 // per-core instruction budget
}

func (w multicoreWorkload) plan(seed uint64) multicorePlan { return newMulticorePlan(seed, w.instr) }

func (w multicoreWorkload) setup(seed uint64) (time.Duration, error) {
	sim.NewSystem(w.plan(seed).cfgs[0])
	return 0, nil
}

// evaluate runs every config through sim.EvaluateCtx, workers calls at
// a time; each call is wrapped in a span when lanes are given.
func evaluate(ctx context.Context, cfgs []sim.RunConfig, workers int, lanes []*lane) ([]sim.WorkloadResult, error) {
	res := make([]sim.WorkloadResult, len(cfgs))
	errs := make([]error, len(cfgs))
	parallel(workers, len(cfgs), func(k, i int) {
		if lanes == nil {
			res[i], errs[i] = sim.EvaluateCtx(ctx, cfgs[i])
			return
		}
		l := lanes[k]
		l.point = i
		id := l.begin("sim.evaluate")
		res[i], errs[i] = sim.EvaluateCtx(ctx, cfgs[i])
		l.end(id)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (w multicoreWorkload) run(ctx context.Context, seed uint64, engine string, workers int) (*outcome, error) {
	prev := sim.EngineOverride()
	sim.SetEngine(engine)
	defer sim.SetEngine(prev)
	p := w.plan(seed)
	res, err := evaluate(ctx, p.cfgs, workers, nil)
	if err != nil {
		return nil, err
	}
	return p.outcome(res), nil
}

// figure7 returns each non-baseline design's row of Figure 7: per group
// the mean normalised weighted speedup, then their geometric mean.
func (p multicorePlan) figure7(res []sim.WorkloadResult) [][]float64 {
	nd := len(multicoreDesigns)
	var rows [][]float64
	for di := 1; di < nd; di++ {
		ratios := make([][]float64, len(p.groups))
		for i := 0; i < len(res); i += nd {
			base, cur := res[i], res[i+di]
			if base.WeightedSpeedup > 0 {
				gi := p.groupOf[i]
				ratios[gi] = append(ratios[gi], cur.WeightedSpeedup/base.WeightedSpeedup)
			}
		}
		var vals []float64
		for _, r := range ratios {
			vals = append(vals, metrics.Mean(r))
		}
		rows = append(rows, append(vals, metrics.GMean(vals)))
	}
	return rows
}

// outcome checks the results and extracts the modelled metrics.
func (p multicorePlan) outcome(res []sim.WorkloadResult) *outcome {
	o := &outcome{ops: len(res), results: res}
	var b strings.Builder
	var rngBits, rngTicks float64
	for i, r := range res {
		fmt.Fprintf(&b, "%+v\n", r)
		o.ticks += r.TotalTicks
		if r.TotalTicks <= 0 || !(r.WeightedSpeedup > 0) || math.IsInf(r.WeightedSpeedup, 0) {
			o.problems = append(o.problems, fmt.Sprintf("%s/%s: ticks %d, weighted speedup %v",
				p.cfgs[i].Mix.Name, p.cfgs[i].Design, r.TotalTicks, r.WeightedSpeedup))
		}
		if p.cfgs[i].Design == sim.DesignDRStrange {
			rngBits += float64(r.Ctrl.RNGServed) * 64
			rngTicks += float64(r.TotalTicks)
		}
	}
	rows := p.figure7(res)
	fmt.Fprintf(&b, "figure7 %v\n", rows)
	o.digest = []byte(b.String())
	drs := rows[len(rows)-1]
	o.model.WSGmean = drs[len(drs)-1]
	if rngTicks > 0 {
		o.model.AchievedMbps = rngBits / (rngTicks * sim.TickNanos * 1e-9) / 1e6
	}
	return o
}

// redrive is the multicore layer pass: every config's shared run built
// and stepped to completion through the System API, as the evaluator
// runs it, with its result checked against the evaluator's.
type redrive struct {
	ticks, retired int64
	ctrl, drsCtrl  memctrl.Stats
	counts         [4]int64 // ACT, RD, WR, REF
	unblocks       int64
	stallFrac      float64 // mean RNG stall fraction over DR-STRaNGe configs
	diffs          []string
}

func (w multicoreWorkload) redrive(ctx context.Context, p multicorePlan, res []sim.WorkloadResult, workers int, lanes []*lane) redrive {
	type one struct {
		r        sim.RunResult
		unblocks int64
	}
	outs := make([]one, len(p.cfgs))
	parallel(workers, len(p.cfgs), func(k, i int) {
		if ctx.Err() != nil {
			return
		}
		l := lanes[k]
		l.point = i
		id := l.begin("sim.new_system")
		sys := sim.NewSystem(p.cfgs[i])
		l.end(id)
		id = l.begin("sim.step")
		sys.StepTo(p.cfgs[i].Instructions*2000 - 1)
		l.end(id)
		outs[i] = one{sys.Result(), sys.Controller().UnblockEvents()}
	})
	var rd redrive
	var drs int
	for i, o := range outs {
		want := res[i]
		if o.r.TotalTicks != want.TotalTicks || o.r.Ctrl != want.Ctrl {
			rd.diffs = append(rd.diffs, fmt.Sprintf("%s/%s: re-driven ticks %d ctrl %+v, evaluated ticks %d ctrl %+v",
				p.cfgs[i].Mix.Name, p.cfgs[i].Design, o.r.TotalTicks, o.r.Ctrl, want.TotalTicks, want.Ctrl))
		}
		rd.ticks += o.r.TotalTicks
		rd.ctrl.Add(o.r.Ctrl)
		rd.counts[0] += o.r.Counts.ACTs
		rd.counts[1] += o.r.Counts.RDs
		rd.counts[2] += o.r.Counts.WRs
		rd.counts[3] += o.r.Counts.REFs
		rd.unblocks += o.unblocks
		for _, app := range o.r.Apps {
			rd.retired += app.Retired
		}
		if p.cfgs[i].Design == sim.DesignDRStrange {
			rd.drsCtrl.Add(o.r.Ctrl)
			rd.stallFrac += want.RNGStallFrac
			drs++
		}
	}
	if drs > 0 {
		rd.stallFrac /= float64(drs)
	}
	return rd
}

// stepAllocs steps the first DR-STRaNGe config alone and counts the
// heap objects allocated inside StepTo.
func (multicoreWorkload) stepAllocs(p multicorePlan) (allocs uint64, ticks int64) {
	for _, cfg := range p.cfgs {
		if cfg.Design != sim.DesignDRStrange {
			continue
		}
		sys := sim.NewSystem(cfg)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sys.StepTo(cfg.Instructions*2000 - 1)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, sys.Result().TotalTicks
	}
	return 0, 0
}
