package memctrl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drstrange/internal/trng"
)

// refPlanDemand is the uncapped reference for planDemand under
// RNGAware: it sums BitsRemaining over the whole RNG queue, counts every
// channel the demand could use one RoundBits step at a time, and
// arbitrates with the maximum RNG priority (refPriorityWins). The
// production code must make the same decisions and leave the same
// starvation state.
func refPlanDemand(c *Controller) []bool {
	enter := make([]bool, len(c.chans))
	rngWins, bothBusy := refCountStall(c)
	if len(c.rngQ) == 0 {
		return enter
	}
	if bothBusy && c.stallCtr >= c.cfg.StallLimit {
		c.forceOverride = true
		c.stallCtr = 0
		c.stats.StarvationOverrides++
	}
	if c.forceOverride {
		rngWins = !rngWins
		c.forceOverride = false
	}

	remaining := 0.0
	for _, r := range c.rngQ {
		remaining += r.BitsRemaining()
	}
	for i := range c.chans {
		if c.chans[i].mode != modeRegular && c.chans[i].ctx == ctxDemand {
			remaining -= c.cfg.Mech.RoundBits
		}
	}
	wanted := 0
	for bits := remaining; bits > 0; bits -= c.cfg.Mech.RoundBits {
		wanted++
	}
	if wanted <= 0 {
		return enter
	}

	var cands []chanCand
	for i := range c.chans {
		cs := &c.chans[i]
		if cs.mode != modeRegular {
			continue
		}
		eligible := rngWins
		if !eligible && len(cs.readQ) > 0 {
			oldest := cs.readQ[0]
			if c.isRNGApp[oldest.Core] && oldest.Arrive > c.rngQ[0].Arrive {
				eligible = true
			}
		}
		if !eligible && len(cs.readQ) == 0 && len(cs.writeQ) == 0 {
			eligible = true
		}
		if eligible {
			cands = append(cands, chanCand{i, len(cs.readQ)})
		}
	}
	slices.SortStableFunc(cands, func(a, b chanCand) int { return a.qlen - b.qlen })
	for i := 0; i < len(cands) && i < wanted; i++ {
		enter[cands[i].ch] = true
	}
	return enter
}

func refCountStall(c *Controller) (rngWins, bothBusy bool) {
	if len(c.rngQ) == 0 {
		c.stallCtr = 0
		return false, false
	}
	rngWins = refPriorityWins(c)
	if !c.anyReadQueued() {
		c.stallCtr = 0
		return rngWins, false
	}
	if c.deprioRNG != !rngWins {
		c.deprioRNG = !rngWins
		c.stallCtr = 0
	}
	c.stallCtr++
	return rngWins, true
}

func refPriorityWins(c *Controller) bool {
	pR := -1 << 30
	for _, r := range c.rngQ {
		if p := c.priorities[r.Core]; p > pR {
			pR = p
		}
	}
	pN := -1 << 30
	seen := false
	for i := range c.chans {
		for _, r := range c.chans[i].readQ {
			if !c.isRNGApp[r.Core] {
				seen = true
				if p := c.priorities[r.Core]; p > pN {
					pN = p
				}
			}
		}
	}
	if !seen {
		return true
	}
	return pR >= pN
}

const planCores = 6

// randomPlanState builds an RNGAware controller in an arbitrary
// arbitration state: channels in mixed modes and contexts, read queues
// mixing RNG and non-RNG cores of differing (sometimes tied) priorities,
// and an RNG queue 0–32 deep whose leading requests may be partly
// generated.
func randomPlanState(t *testing.T, mech trng.Mechanism, r *rand.Rand) *Controller {
	t.Helper()
	cfg := DefaultConfig(planCores)
	cfg.Policy = RNGAware
	cfg.Mech = mech
	cfg.StallLimit = 1 + int64(r.Intn(20))
	cfg.Priorities = make([]int, planCores)
	for core := range cfg.Priorities {
		cfg.Priorities[core] = r.Intn(4) // differing priorities, with ties
	}
	c := mustController(t, cfg)
	for core := range c.isRNGApp {
		c.isRNGApp[core] = r.Intn(2) == 0
	}
	for i := range c.chans {
		cs := &c.chans[i]
		if r.Intn(2) == 0 {
			cs.mode = chanMode(1 + r.Intn(3))
			cs.ctx = rngContext(1 + r.Intn(2))
		}
		for n := r.Intn(5); n > 0; n-- {
			cs.readQ = append(cs.readQ, &Request{Kind: KindRead, Core: r.Intn(planCores), Arrive: int64(r.Intn(100))})
		}
		if r.Intn(4) == 0 {
			cs.writeQ = append(cs.writeQ, &Request{Kind: KindWrite, Core: r.Intn(planCores)})
		}
	}
	for n := r.Intn(cfg.RNGQueueCap + 1); n > 0; n-- {
		pushPlanRNG(c, r)
	}
	c.stallCtr = int64(r.Intn(int(cfg.StallLimit) + 1))
	c.deprioRNG = r.Intn(2) == 0
	c.forceOverride = r.Intn(8) == 0
	return c
}

func pushPlanRNG(c *Controller, r *rand.Rand) {
	req := &Request{Kind: KindRNG, Core: r.Intn(planCores), Arrive: int64(r.Intn(100))}
	if len(c.rngQ) < 3 && r.Intn(2) == 0 {
		req.bitsFilled = 64 * r.Float64()
	}
	c.isRNGApp[req.Core] = true
	c.rngQ = append(c.rngQ, req)
}

// mutatePlanState applies one random between-tick state change. Called
// with identically seeded generators on identical controllers, it keeps
// them identical.
func mutatePlanState(c *Controller, r *rand.Rand) {
	switch r.Intn(6) {
	case 0:
		if len(c.rngQ) < c.cfg.RNGQueueCap {
			pushPlanRNG(c, r)
		}
	case 1:
		if len(c.rngQ) > 0 {
			c.rngQ = c.rngQ[1:]
		}
	case 2:
		if len(c.rngQ) > 0 {
			c.rngQ[0].bitsFilled = 64 * r.Float64()
		}
	case 3:
		cs := &c.chans[r.Intn(len(c.chans))]
		if cs.mode == modeRegular {
			cs.mode = chanMode(1 + r.Intn(3))
			cs.ctx = rngContext(1 + r.Intn(2))
		} else {
			cs.mode, cs.ctx = modeRegular, ctxNone
		}
	case 4:
		cs := &c.chans[r.Intn(len(c.chans))]
		cs.readQ = append(cs.readQ, &Request{Kind: KindRead, Core: r.Intn(planCores), Arrive: int64(r.Intn(100))})
	case 5:
		cs := &c.chans[r.Intn(len(c.chans))]
		if len(cs.readQ) > 0 {
			cs.readQ = cs.readQ[1:]
		}
	}
}

// TestPlanDemandMatchesUncappedReference compares planDemand with the
// uncapped full-queue reference tick by tick on randomized controller
// states, for whole-bit and fractional RoundBits mechanisms.
func TestPlanDemandMatchesUncappedReference(t *testing.T) {
	mechs := []trng.Mechanism{trng.DRaNGe(), trng.QUACTRNG(), trng.Parametric(4800, 4)}
	for _, mech := range mechs {
		t.Run(mech.Name, func(t *testing.T) {
			entered := 0
			for seed := int64(0); seed < 300; seed++ {
				got := randomPlanState(t, mech, rand.New(rand.NewSource(seed)))
				want, _ := got.Clone()
				rGot := rand.New(rand.NewSource(seed + 1<<32))
				rWant := rand.New(rand.NewSource(seed + 1<<32))
				for tick := int64(0); tick < 40; tick++ {
					g := slices.Clone(got.planDemand(tick))
					w := refPlanDemand(want)
					where := fmt.Sprintf("seed %d tick %d (rngQ %d)", seed, tick, len(want.rngQ))
					if !slices.Equal(g, w) {
						t.Fatalf("%s: enter = %v, reference %v", where, g, w)
					}
					if got.stallCtr != want.stallCtr || got.deprioRNG != want.deprioRNG || got.forceOverride != want.forceOverride {
						t.Fatalf("%s: starvation state (%d,%v,%v), reference (%d,%v,%v)", where,
							got.stallCtr, got.deprioRNG, got.forceOverride, want.stallCtr, want.deprioRNG, want.forceOverride)
					}
					if got.stats.StarvationOverrides != want.stats.StarvationOverrides {
						t.Fatalf("%s: StarvationOverrides = %d, reference %d", where,
							got.stats.StarvationOverrides, want.stats.StarvationOverrides)
					}
					if slices.Contains(g, true) {
						entered++
					}
					mutatePlanState(got, rGot)
					mutatePlanState(want, rWant)
				}
			}
			if entered == 0 {
				t.Fatal("no tick switched a channel into demand mode; the states exercise nothing")
			}
		})
	}
}
