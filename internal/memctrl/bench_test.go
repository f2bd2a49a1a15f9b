package memctrl

import (
	"fmt"
	"testing"
)

// BenchmarkControllerTickRNGBacklog measures Controller.Tick in the
// saturated-service regime: every channel is mid-round generating for
// demand and the RNG queue holds a fixed backlog, so each tick runs the
// full RNG arbitration (starvation counter, priority rules, demand
// count) and nothing completes. With queued reads, a non-RNG core also
// has reads waiting on every channel. Per-tick cost should not grow
// with the backlog depth.
func BenchmarkControllerTickRNGBacklog(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		for _, reads := range []bool{false, true} {
			b.Run(fmt.Sprintf("depth=%d/reads=%v", depth, reads), func(b *testing.B) {
				cfg := DefaultConfig(2)
				cfg.Policy = RNGAware
				c, err := NewController(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < depth; i++ {
					if _, ok := c.SubmitRNG(1, 0); !ok {
						b.Fatal("RNG queue refused the backlog")
					}
				}
				for ch := range c.chans {
					if reads {
						for i := 0; i < 4; i++ {
							c.SubmitRead(lineFor(cfg.Geom, ch, i, 10, 0), 0, 0)
						}
					}
					cs := &c.chans[ch]
					cs.mode, cs.ctx, cs.modeUntil = modeRound, ctxDemand, 1<<62
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Tick(int64(i + 1))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
				if c.RNGQueueLen() != depth {
					b.Fatalf("backlog drained to %d; the benchmark left the saturated regime", c.RNGQueueLen())
				}
			})
		}
	}
}
