package sim

import (
	"reflect"
	"testing"

	"drstrange/internal/workload"
)

// The sharded-topology contract, tested the way the engines are: every
// observable — request records, shard stats, serve points, Results —
// must be byte-identical across engines, event-queue modes, StepTo
// slicings, and (for shards=1) against the single-channel code path
// the historical goldens pin.

// underEventQueue runs f with the event engine's next-event index
// forced to mode, restoring the default afterwards.
func underEventQueue(mode string, f func()) {
	SetEventQueue(mode)
	defer SetEventQueue("")
	f()
}

// shardDrive injects a deterministic uneven schedule into a sharded
// System and steps it to a fixed horizon (always the same final tick,
// so post-drain snapshots like buffer fill are comparable across
// slicings), returning the completed request records (injection order)
// and the per-shard stats.
func shardDrive(t *testing.T, cfg RunConfig, n int, stepSize int64) ([]InjectedRequest, []ShardStat) {
	t.Helper()
	sys := NewSystem(cfg)
	var reqs []*InjectedRequest
	at := int64(100)
	for i := 0; i < n; i++ {
		reqs = append(reqs, sys.InjectRNG(i%cfg.Clients, at, 1+i%2))
		at += int64(3 + i%29) // uneven: bursts of same-tick arrivals included
	}
	horizon := at + 200_000
	for cursor := int64(0); cursor < horizon; {
		cursor += stepSize
		if cursor > horizon {
			cursor = horizon
		}
		sys.StepTo(cursor - 1)
	}
	if sys.OutstandingInjections() > 0 {
		t.Fatalf("shards=%d router=%s: %d requests still outstanding at tick %d",
			cfg.Shards, cfg.Router, sys.OutstandingInjections(), horizon)
	}
	out := make([]InjectedRequest, len(reqs))
	for i, r := range reqs {
		if !r.Done {
			t.Fatalf("shards=%d router=%s: request %d never completed", cfg.Shards, cfg.Router, i)
		}
		out[i] = *r
	}
	return out, sys.ShardStats()
}

// TestShardConservation is the routing property test: for any shard
// count, router policy, and seed, every injected request is routed to
// exactly one shard and completed by it — sum(Routed) == injected ==
// sum(Completed), no shard holds live requests after the drain, and
// each record's Shard field is a valid index matching the tally.
func TestShardConservation(t *testing.T) {
	const n = 150
	for _, shards := range []int{1, 2, 5} {
		for _, router := range RouterNames() {
			for _, seed := range []uint64{0, 7} {
				cfg := RunConfig{
					Design:       DesignDRStrange,
					Instructions: serveTarget,
					Clients:      4,
					Seed:         seed,
					Shards:       shards,
					Router:       router,
				}
				recs, stats := shardDrive(t, cfg, n, 1<<40)
				if len(stats) != shards {
					t.Fatalf("shards=%d router=%s: ShardStats has %d entries", shards, router, len(stats))
				}
				perShard := make([]int64, shards)
				for i, r := range recs {
					if r.Shard < 0 || r.Shard >= shards {
						t.Fatalf("shards=%d router=%s: request %d routed to shard %d", shards, router, i, r.Shard)
					}
					perShard[r.Shard]++
				}
				var routed, completed int64
				for k, st := range stats {
					routed += st.Routed
					completed += st.Completed
					if st.Live != 0 {
						t.Errorf("shards=%d router=%s: shard %d has %d live requests after drain", shards, router, k, st.Live)
					}
					if st.Routed != perShard[k] {
						t.Errorf("shards=%d router=%s: shard %d Routed=%d but %d records carry it",
							shards, router, k, st.Routed, perShard[k])
					}
				}
				if routed != n || completed != n {
					t.Errorf("shards=%d router=%s seed=%d: routed=%d completed=%d, want %d each",
						shards, router, seed, routed, completed, n)
				}
			}
		}
	}
}

// TestShardInjectionDifferential extends the injection-port engine
// differential to sharded topologies: request records (including the
// routing decision in Shard) and shard stats must be identical under
// the ticked engine, the event engine, chunked slicing, and both
// event-queue modes, for every router policy.
func TestShardInjectionDifferential(t *testing.T) {
	for _, router := range RouterNames() {
		cfg := RunConfig{
			Design:       DesignDRStrange,
			Mix:          workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
			Instructions: serveTarget,
			Clients:      4,
			Shards:       3,
			Router:       router,
		}
		type snap struct {
			recs  []InjectedRequest
			stats []ShardStat
		}
		run := func(stepSize int64) snap {
			recs, stats := shardDrive(t, cfg, 120, stepSize)
			return snap{recs, stats}
		}
		var ticked, event, chunked, scan snap
		underEngine(EngineTicked, func() { ticked = run(1 << 40) })
		underEngine(EngineEvent, func() { event = run(1 << 40) })
		underEngine(EngineEvent, func() { chunked = run(101) })
		underEngine(EngineEvent, func() {
			underEventQueue(EventQueueScan, func() { scan = run(1 << 40) })
		})
		if !reflect.DeepEqual(ticked, event) {
			t.Errorf("%s: sharded injections diverge between engines", router)
		}
		if !reflect.DeepEqual(event, chunked) {
			t.Errorf("%s: sharded injections depend on StepTo slicing", router)
		}
		if !reflect.DeepEqual(event, scan) {
			t.Errorf("%s: heap and scan event queues diverge", router)
		}
	}
}

// TestShardStepToSegments extends the steppable-core property test to
// sharded closed-loop runs: slicing a multi-shard run into prime-sized
// StepTo chunks must produce a deeply equal Result under both engines
// and both event-queue modes.
func TestShardStepToSegments(t *testing.T) {
	cfg := RunConfig{
		Design:       DesignDRStrange,
		Mix:          workload.Mix{Name: "soplex+rng", Apps: []string{"soplex"}, RNGMbps: 5120},
		Instructions: 4000,
		Shards:       3,
	}
	run := func() RunResult {
		sys := NewSystem(cfg)
		sys.StepTo(cfg.Instructions*2000 - 1)
		if !sys.Done() {
			t.Fatal("whole run never completed")
		}
		return sys.Result()
	}
	chunked := func() RunResult {
		sys := NewSystem(cfg)
		var cursor int64
		for !sys.Done() {
			cursor += 997
			sys.StepTo(cursor - 1)
			if cursor > cfg.Instructions*2000 {
				t.Fatal("chunked run never completed")
			}
		}
		return sys.Result()
	}
	var ref RunResult
	underEngine(EngineTicked, func() { ref = run() })
	for _, engine := range []string{EngineTicked, EngineEvent} {
		for _, queue := range []string{EventQueueHeap, EventQueueScan} {
			var whole, sliced RunResult
			underEngine(engine, func() {
				underEventQueue(queue, func() {
					whole = run()
					sliced = chunked()
				})
			})
			if !reflect.DeepEqual(ref, whole) {
				t.Errorf("%s/%s: sharded Result diverges from the ticked reference", engine, queue)
			}
			if !reflect.DeepEqual(whole, sliced) {
				t.Errorf("%s/%s: sharded Result depends on StepTo slicing", engine, queue)
			}
		}
	}
}

// TestServeShardedDifferential pins the full open-loop path on a
// sharded topology: the measured ServePoints (latency percentiles,
// hit rates, per-shard stats) must be identical across engines and
// event-queue modes, and a single-shard sweep must be deeply equal to
// the historical default-config sweep (Shards/Router left zero).
func TestServeShardedDifferential(t *testing.T) {
	cfg := ServeConfig{
		Design:      DesignDRStrange,
		Background:  workload.Mix{Name: "mcf", Apps: []string{"mcf"}},
		WarmupTicks: 5_000,
		WindowTicks: 20_000,
		Seed:        3,
		Shards:      4,
		Router:      RouterJSQ,
	}
	loads := []float64{1280, 5120}
	var event, ticked, scan []ServePoint
	underEngine(EngineEvent, func() { event = ServeLoad(cfg, loads) })
	underEngine(EngineTicked, func() { ticked = ServeLoad(cfg, loads) })
	underEngine(EngineEvent, func() {
		underEventQueue(EventQueueScan, func() { scan = ServeLoad(cfg, loads) })
	})
	if !reflect.DeepEqual(event, ticked) {
		t.Errorf("sharded serve points diverge between engines\n event:  %+v\n ticked: %+v", event, ticked)
	}
	if !reflect.DeepEqual(event, scan) {
		t.Errorf("sharded serve points diverge between event-queue modes\n heap: %+v\n scan: %+v", event, scan)
	}
	for _, pt := range event {
		if pt.Shards != 4 || pt.Router != RouterJSQ || len(pt.PerShard) != 4 {
			t.Fatalf("sharded point missing topology stats: %+v", pt)
		}
	}

	// shards=1, explicitly set with a non-default router, must follow
	// the single-channel code path bit for bit: the router never runs
	// with one shard, and ServePoint's topology fields stay zero.
	single := cfg
	single.Shards, single.Router = 1, RouterSticky
	legacy := cfg
	legacy.Shards, legacy.Router = 0, ""
	var one, zero []ServePoint
	underEngine(EngineEvent, func() {
		one = ServeLoad(single, loads)
		zero = ServeLoad(legacy, loads)
	})
	for i := range one {
		// Router differs by construction ("sticky" vs defaulted
		// "round-robin") but is irrelevant at one shard and unset on
		// single-shard points; everything measured must match.
		if !reflect.DeepEqual(one[i], zero[i]) {
			t.Errorf("explicit shards=1 diverges from the default single-channel sweep at %gMb/s\n one:  %+v\n zero: %+v",
				loads[i], one[i], zero[i])
		}
		if one[i].Shards != 0 || one[i].Router != "" || one[i].PerShard != nil {
			t.Errorf("single-shard point carries topology stats: %+v", one[i])
		}
	}
}

// TestRouterPolicies pins each policy's deterministic choice on
// hand-built shard states.
func TestRouterPolicies(t *testing.T) {
	mk := func(lives ...int) []*channelShard {
		out := make([]*channelShard, len(lives))
		for i, l := range lives {
			out[i] = &channelShard{idx: i, live: l}
		}
		return out
	}
	ir := func(client int) *InjectedRequest { return &InjectedRequest{Client: client} }

	rr, _ := newRoutePolicy(RouterRoundRobin)
	shards := mk(0, 0, 0)
	for i := 0; i < 7; i++ {
		if got := rr.pick(shards, ir(0)); got != i%3 {
			t.Fatalf("round-robin pick %d = %d, want %d", i, got, i%3)
		}
	}

	jsq, _ := newRoutePolicy(RouterJSQ)
	if got := jsq.pick(mk(5, 2, 2, 9), ir(0)); got != 1 {
		t.Errorf("jsq = %d, want 1 (least live, lowest index on tie)", got)
	}

	// With every buffer empty (no controller attached), buffer-aware
	// degrades to least-live.
	ba, _ := newRoutePolicy(RouterBufferAware)
	if got := ba.pick(mk(4, 1, 3), ir(0)); got != 1 {
		t.Errorf("buffer-aware on empty buffers = %d, want 1 (jsq fallback)", got)
	}

	sticky, _ := newRoutePolicy(RouterSticky)
	for client := 0; client < 6; client++ {
		if got := sticky.pick(mk(9, 0, 0), ir(client)); got != client%3 {
			t.Errorf("sticky client %d = %d, want %d", client, got, client%3)
		}
	}

	if _, ok := newRoutePolicy("zipf"); ok {
		t.Error("newRoutePolicy accepted an unknown name")
	}
}

// TestBoundHeap exercises the indexed event queue directly: the
// minimum tracks key updates in both directions, ties break by shard
// index, and every slot stays where the index says it is.
func TestBoundHeap(t *testing.T) {
	h := newBoundHeap(5)
	if got := h.min(); got != farFuture {
		t.Fatalf("fresh heap min = %d, want farFuture", got)
	}
	ticks := []int64{farFuture, farFuture, farFuture, farFuture, farFuture}
	set := func(shard int32, tick int64) {
		h.set(shard, tick)
		ticks[shard] = tick
		want := farFuture
		for _, v := range ticks {
			if v < want {
				want = v
			}
		}
		if got := h.min(); got != want {
			t.Fatalf("after set(%d, %d): min = %d, want %d", shard, tick, got, want)
		}
		for k := range ticks {
			if h.order[h.slot[k]] != int32(k) {
				t.Fatalf("after set(%d, %d): slot index of shard %d is stale", shard, tick, k)
			}
		}
		for i := 1; i < len(h.order); i++ {
			if h.less(i, (i-1)/2) {
				t.Fatalf("after set(%d, %d): heap order violated at slot %d", shard, tick, i)
			}
		}
	}
	set(1, 50)
	set(2, 10)
	set(0, 10)
	set(3, 30)
	set(4, 40)
	if top := h.order[0]; top != 0 {
		t.Errorf("tie at tick 10: top shard %d, want 0", top)
	}
	set(0, 60) // sift down
	set(4, 5)  // sift up
	set(2, 5)  // tie with shard 4 moves ahead of it
	if top := h.order[0]; top != 2 {
		t.Errorf("tie at tick 5: top shard %d, want 2", top)
	}
	rng := uint64(1)
	for i := 0; i < 500; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		set(int32(rng>>33)%5, int64(rng>>40)%100)
	}
}
