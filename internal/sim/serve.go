package sim

import (
	"context"
	"fmt"
	"math"
	"strings"

	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// The open-loop serving layer: an offered-load sweep over the steppable
// System core. Where the figure drivers replay closed-loop instruction
// traces to completion, ServeLoad fixes the request arrival process —
// N simulated clients submitting RNG requests through the injection
// port at a configured aggregate rate — and measures what the paper's
// designs deliver under that pressure: served throughput, the full
// request-latency tail (p50/p95/p99/p999), and the buffer hit rate.
// This is the open-loop generalization of Figure 2, and the scenario
// family the paper never plots: tail latency of DR-STRaNGe's buffering
// against on-demand generation under contention.

// TickNanos converts memory-cycle latencies to wall-clock nanoseconds
// (one memory cycle is 5 ns; see internal/trng).
const TickNanos = 1e9 / trng.MemCyclesPerSecond

// ServeConfig describes one open-loop serving experiment, shared by
// every point of an offered-load sweep.
type ServeConfig struct {
	Design Design
	// Mech is the TRNG mechanism; the zero value selects D-RaNGe.
	Mech trng.Mechanism
	// BufferWords sizes the random number buffer; <= 0 selects the
	// design default.
	BufferWords int
	// Background is the contention workload sharing the memory system
	// with the served requests (may be empty: a dedicated RNG system).
	// Background cores run for the whole experiment; they are load, not
	// measurement.
	Background workload.Mix
	// Clients is the number of simulated request clients; <= 0 selects
	// DRSTRANGE_CLIENTS, then 8. On the open-loop path clients matter
	// for per-core bookkeeping (priorities, RNG-app marking and buffer
	// partitioning), not for the arrival process, which is aggregate. On
	// the closed-loop path (ThinkTicks > 0) Clients is ignored: the
	// population is sized from the offered load by Little's law, so every
	// sweep point targets its configured rate.
	Clients int
	// ThinkTicks switches the experiment to a closed-loop client
	// population with this mean exponential think time in ticks
	// (workload.ClosedLoop): each client submits, waits for completion,
	// thinks, and submits again; shed/failed requests retry with capped
	// exponential backoff. <= 0 — the default — keeps the historical
	// open-loop arrival process byte for byte.
	ThinkTicks int64
	// Classes names the request classes cycled across submissions
	// (ClassNames: keygen, standard, bulk); request i carries class
	// i mod len(Classes). Empty leaves every request unclassed — the
	// historical path byte for byte.
	Classes []string
	// Admission names the per-shard admission policy (AdmissionNames:
	// none, drop-lowest-class, threshold-by-depth); "" selects
	// DRSTRANGE_ADMISSION, then none.
	Admission string
	// AdmitDepth is the per-shard queue-depth admission bound; <= 0
	// selects DefaultAdmitDepth. Ignored when Admission is none.
	AdmitDepth int
	// RequestBytes is the size of one RNG request; <= 0 selects 8 (one
	// 64-bit word). Larger requests submit ceil(RequestBytes/8) words
	// and complete when the last word does.
	RequestBytes int
	// Arrival names the arrival process (workload.ArrivalPoisson,
	// ArrivalBursty, ArrivalDiurnal); "" selects Poisson.
	Arrival string
	// Burstiness shapes the bursty process (ignored by the others).
	Burstiness float64
	// WarmupTicks run before measurement (buffer fill, predictor
	// training, queue steady state); < 0 selects 20000, and an explicit
	// 0 measures from cold start (empty buffer, untrained predictor).
	WarmupTicks int64
	// WindowTicks is the measurement window length; <= 0 selects
	// 100000 (0.5 ms of simulated time).
	WindowTicks int64
	Seed        uint64
	// Shards is the number of independent DRAM channel shards serving
	// the request stream (each with its own controller, RNG buffer, and
	// mechanism instance); <= 0 selects DRSTRANGE_SHARDS, then 1 — the
	// paper's single-channel machine, which reproduces every historical
	// serve figure byte for byte.
	Shards int
	// Router names the request routing policy across shards
	// (RouterNames); "" selects DRSTRANGE_ROUTER, then round-robin.
	Router string
	// Health switches online entropy health monitoring: "on" or "off";
	// "" selects DRSTRANGE_HEALTH, then "off" — except that naming a
	// Fault implies "on" (injecting degradation without the monitor
	// that reacts to it is never what a scenario means). The clean
	// path with monitoring on is byte-identical to monitoring off:
	// zero false trips is a pinned property.
	Health string
	// Fault names a deterministic degradation profile injected into
	// every shard's entropy stream (trng.FaultNames: bias-ramp,
	// stuck-bits, burst); "" selects DRSTRANGE_FAULT, then none.
	Fault string
	// Warm switches checkpointed warm starts: "on" or "off"; "" selects
	// DRSTRANGE_WARM, then "off". When on, the sweep warms exactly one
	// background-only System per configuration to WarmupTicks, snapshots
	// it as an immutable image (memoized process-wide, so concurrent
	// sweeps share one warm-up), and forks every offered-load point from
	// that image — the warmup work is paid once per configuration
	// instead of once per point. A warm point injects no warmup-period
	// arrivals (the image is shared across loads, so it cannot contain
	// load-dependent state); the measured-window arrival schedule and
	// client rotation are unchanged. The default cold path is
	// byte-identical to every historical serve figure; warm mode is a
	// different (deterministic) experiment, which is why it is opt-in.
	Warm string
	// Checkpoint, when positive, snapshots the running point's System
	// every Checkpoint ticks inside the measurement window and resumes
	// it from the restored image — periodic checkpoint/resume for long
	// windows. Restore-then-step is byte-identical to uninterrupted
	// stepping (the Snapshot differential tests pin it), so the measured
	// output does not depend on the interval; <= 0 disables.
	Checkpoint int64
}

// Normalized returns the configuration with its defaults filled in:
// D-RaNGe, 8 clients, 8-byte requests, Poisson arrivals, a 20000-tick
// warmup (negative only — an explicit 0 measures from cold start) and
// a 100000-tick window. This is the single defaulting point of the
// serving layer, and the reference the public scenario API's
// defaulting-parity tests compare against.
func (c ServeConfig) Normalized() ServeConfig {
	if c.Mech.Name == "" {
		c.Mech = trng.DRaNGe()
	}
	if c.Clients <= 0 {
		c.Clients = DefaultClients()
	}
	if c.ThinkTicks < 0 {
		c.ThinkTicks = 0
	}
	if c.Admission == "" {
		c.Admission = DefaultAdmission()
	}
	if c.AdmitDepth <= 0 {
		c.AdmitDepth = DefaultAdmitDepth
	}
	if c.RequestBytes <= 0 {
		c.RequestBytes = 8
	}
	if c.Arrival == "" {
		c.Arrival = workload.ArrivalPoisson
	}
	if c.WarmupTicks < 0 {
		c.WarmupTicks = 20_000
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 100_000
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards()
	}
	if c.Router == "" {
		c.Router = DefaultRouter()
	}
	if c.Fault == "" {
		c.Fault = DefaultFault()
	}
	if c.Health == "" {
		if c.Fault != "" {
			c.Health = "on"
		} else {
			c.Health = DefaultHealth()
		}
	}
	if c.Health != "on" {
		// Normalize every negative spelling to "off", and drop a fault
		// explicitly overridden to run unmonitored (the injection is
		// only observable through the monitor).
		c.Health = "off"
		c.Fault = ""
	}
	if c.Warm == "" {
		c.Warm = DefaultWarm()
	}
	if c.Warm != "on" || c.WarmupTicks == 0 || c.ThinkTicks > 0 {
		// Normalize every negative spelling to "off"; with no warmup
		// there is no warm state to share, so cold start is the same
		// experiment and the image machinery would only add overhead.
		// Closed-loop points are always cold: the warm image is
		// background-only and shared across loads, but a closed loop's
		// warmup traffic is load-dependent (its population is), so there
		// is no image that every point could fork from.
		c.Warm = "off"
	}
	if c.Checkpoint < 0 || c.ThinkTicks > 0 {
		// Closed-loop points never checkpoint: the client population's
		// schedule lives outside the System, so a mid-run image would be
		// partial. (Restore ≡ replay still holds for the System itself;
		// this is a scope choice, not a correctness one.)
		c.Checkpoint = 0
	}
	return c
}

// classTable resolves configured class names into their table entries;
// nil when unclassed. An unknown name panics — the public surfaces
// (scenario validation, the rngbench flags) reject it upstream.
func classTable(names []string) []RequestClass {
	if len(names) == 0 {
		return nil
	}
	out := make([]RequestClass, len(names))
	for i, name := range names {
		cls, ok := ClassByName(name)
		if !ok {
			panic(fmt.Sprintf("sim: unknown request class %q (valid: %v)", name, ClassNames()))
		}
		out[i] = cls
	}
	return out
}

func (c *ServeConfig) normalize() { *c = c.Normalized() }

// ServePoint is one measured offered-load point of a serving sweep.
// Latencies are in memory cycles (multiply by TickNanos for ns) and
// cover arrival to last-word completion — queueing, backpressure, and
// generation all count, as a client would experience them.
type ServePoint struct {
	OfferedMbps float64
	// AchievedMbps is the random-number throughput actually delivered
	// during the measurement window. It tracks OfferedMbps until the
	// system saturates.
	AchievedMbps float64
	// Submitted counts requests arriving inside the window; Completed
	// counts how many of those finished before the drain horizon (they
	// differ only if the drain cap cut off a saturated backlog).
	Submitted int64
	Completed int64
	// BufferHitRate is the fraction of measured words served from the
	// random number buffer.
	BufferHitRate float64

	MeanTicks float64
	P50       float64
	P95       float64
	P99       float64
	P999      float64

	// Streaming-pipeline cost counters (the memory story of the point,
	// not part of the rendered figure). PeakOutstanding is the maximum
	// number of injected requests alive at once — the pipeline's heap
	// high-water mark in requests, bounded by queueing depth rather than
	// window length. RecycledRequests counts injections served from the
	// completion freelist. LatencyBins is the number of distinct latency
	// values the percentile histogram held (its memory in entries,
	// versus one slice element per completion before streaming metrics).
	PeakOutstanding  int64
	RecycledRequests int64
	LatencyBins      int

	// Sharded-topology stats, filled only when the point was measured
	// on a sharded system (Shards > 1): the configured topology plus
	// each shard's routing/occupancy/hit-rate snapshot after the drain.
	// Single-shard points leave all three zero, so every historical
	// ServePoint comparison stays byte-identical.
	Shards   int
	Router   string
	PerShard []ShardStat

	// Health aggregates the point's availability story (trip count,
	// downtime, failed/rerouted requests, availability and its nines)
	// when health monitoring was on; nil otherwise, so health-off
	// points compare and serialize exactly as before. Failed requests
	// count toward Submitted but never toward Completed or the latency
	// percentiles — an entropy failure is an error, not a slow serve.
	Health *ServeHealth

	// Overload-robustness stats (class.go), all zero on the historical
	// open-loop unclassed path. Population is the closed-loop client
	// count the point ran with (Little's law from the offered load;
	// 0 on open-loop points). Shed counts measured requests the
	// admission policy refused; DeadlineMissed those failed at their
	// class deadline while waiting; Retried closed-loop resubmissions
	// after a shed/miss/failure. PerClass breaks the point down by
	// request class, in cfg.Classes order, when classes are configured.
	Population     int
	Shed           int64
	DeadlineMissed int64
	Retried        int64
	PerClass       []ClassStat
}

// ClassStat is one request class's slice of a measured serve point.
// Latencies are in memory cycles, like ServePoint's.
type ClassStat struct {
	// Class names the request class; Priority and DeadlineTicks echo its
	// table entry, so a report is self-describing.
	Class         string
	Priority      int
	DeadlineTicks int64

	// Submitted counts the class's measured-window submissions
	// (closed-loop retries included); Completed those that finished;
	// Shed those the admission policy refused; DeadlineMissed those
	// failed at the class deadline while waiting; Retried the
	// closed-loop resubmissions among Submitted.
	Submitted      int64
	Completed      int64
	Shed           int64
	DeadlineMissed int64
	Retried        int64

	MeanTicks float64
	P50       float64
	P99       float64

	// GoodputMbps is the class's useful delivered throughput: bits of
	// requests that completed inside the window within their deadline
	// (all completions, for a deadline-free class).
	GoodputMbps float64
	// ViolationFrac is the class's SLO-violation fraction:
	// (late completions + deadline misses) / (completions + misses).
	// Deadline-free classes report 0.
	ViolationFrac float64
}

// ServeLoad sweeps the offered loads (aggregate Mb/s of requested
// random bits) under one serving configuration. Points fan out across
// the worker pool; each point is an independent, deterministically
// seeded System, so results are byte-identical at any worker count and
// under either engine.
func ServeLoad(cfg ServeConfig, offeredMbps []float64) []ServePoint {
	out, err := ServeLoadCtx(context.Background(), cfg, offeredMbps)
	if err != nil {
		// The background context never cancels, so this is a real
		// configuration error (bad arrival name) — fail as loudly as the
		// pre-error-path code did.
		//drstrange:alloc-ok cold path: Sprintf only feeds the unreachable-config panic
		panic(fmt.Sprintf("sim: %v", err))
	}
	return out
}

// ServeLoadCtx is ServeLoad under a context. Cancellation aborts the
// sweep promptly and mid-flight: the point fan-out stops claiming new
// load points, and each in-progress point — which advances its System
// in bounded StepTo slices — abandons its measurement at the next
// slice boundary. A cancelled sweep returns (nil, ctx.Err()); partial
// points are never exposed.
func ServeLoadCtx(ctx context.Context, cfg ServeConfig, offeredMbps []float64) ([]ServePoint, error) {
	cfg.normalize()
	// Vet the arrival process once, up front: a bad name must surface as
	// an error from the sweep, not a panic inside a worker goroutine.
	if _, err := workload.NewArrivals(cfg.Arrival, 1, cfg.Burstiness, 0); err != nil {
		return nil, err
	}
	out := make([]ServePoint, len(offeredMbps))
	parDoCtx(ctx, len(offeredMbps), func(i int) {
		out[i] = servePoint(ctx, cfg, offeredMbps[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// serveTarget is the per-core instruction budget of serving runs: large
// enough that background cores never retire it (a System freezes once
// every core finishes), small enough that maxTicks arithmetic stays far
// from overflow.
const serveTarget = int64(1) << 40

// serveSlice bounds how many ticks servePoint advances per StepTo call
// between context checks: small enough that cancellation lands within a
// fraction of a measurement window, large enough that the re-entry
// overhead is invisible (the StepTo slicing invariant guarantees the
// sliced walk is bit-identical to one unsliced call).
const serveSlice = 1 << 13

// servePoint measures one offered-load point as a constant-memory
// streaming pipeline. Nothing in it scales with the window length or
// the offered load, only with the number of requests simultaneously
// outstanding:
//
//   - Arrivals are generated lazily, one StepTo slice ahead, instead of
//     materializing the whole warmup+window schedule up front.
//   - A completion hook folds each finished request into running
//     accumulators (counters and a sparse latency histogram) the moment
//     its last word completes, and the handle is recycled through the
//     System's freelist instead of living until the end of the run.
//   - The drain phase polls the O(1) outstanding count instead of
//     re-scanning a request slice.
//
// The arrival process is the only thing that differs between an
// open-loop point and a closed-loop one (ThinkTicks > 0), and it hides
// behind arrivalSource; the slice, checkpoint and drain loop and the
// accounting are shared. The figure bytes are pinned against the old
// pre-materializing, sort-based collection
// (TestServePointMatchesReferenceCollection and the
// testdata/serve_golden.txt pin): the arrival draw stream, the
// injection schedule, and the nearest-rank percentiles are all exactly
// what the reference produced.
//
//drstrange:noalloc
func servePoint(ctx context.Context, cfg ServeConfig, mbps float64) ServePoint {
	if mbps <= 0 {
		panic("sim: offered load must be positive")
	}
	release := acquireSlot()
	defer release()

	words := (cfg.RequestBytes + 7) / 8
	reqBits := float64(cfg.RequestBytes * 8)
	// Offered Mb/s -> requests per memory cycle (one cycle is 5 ns).
	ratePerTick := mbps * 1e6 / trng.MemCyclesPerSecond / reqBits
	seed := cfg.Seed ^ math.Float64bits(mbps)
	p := ServePoint{OfferedMbps: mbps}

	var src arrivalSource
	if cfg.ThinkTicks > 0 {
		// The closed-loop population is sized from the offered load by
		// Little's law — pop = rate × think, so the point demands its
		// configured load when service is instant and self-throttles as
		// the server falls behind (the defining closed-loop property).
		pop := int(math.Round(ratePerTick * float64(cfg.ThinkTicks)))
		if pop < 1 {
			pop = 1
		}
		p.Population = pop
		src = newClosedArrivals(pop, cfg.ThinkTicks, seed)
	} else {
		arr, err := workload.NewArrivals(cfg.Arrival, ratePerTick, cfg.Burstiness, seed)
		if err != nil {
			//drstrange:alloc-ok cold path: Sprintf only feeds the unreachable-config panic
			panic(fmt.Sprintf("sim: %v", err)) // unreachable: ServeLoadCtx vetted the name
		}
		src = &openArrivals{chunk: workload.NewChunked(arr), clients: cfg.Clients}
	}

	// A warm point forks from the sweep-shared warm image instead of
	// re-running the warmup: the image already sits at WarmupTicks. The
	// arrival draw stream still starts from tick 0 (so the
	// measured-window schedule and client rotation match the cold run
	// draw for draw), but arrivals before the resume tick are skipped —
	// the shared warm image was built without them, which is the warm
	// mode's one semantic difference.
	var sys *System
	injectFrom := int64(0)
	if cfg.Warm == "on" {
		sys = RestoreSystem(warmImage(cfg))
		injectFrom = cfg.WarmupTicks
	} else {
		rcfg := servePointRunConfig(cfg)
		if p.Population > 0 {
			rcfg.Clients = p.Population
		}
		sys = NewSystem(rcfg)
	}

	healthOn := cfg.Health == "on"
	end := cfg.WarmupTicks + cfg.WindowTicks
	if healthOn {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, end)
	}
	classes := classTable(cfg.Classes)
	var (
		hist              metrics.Histogram
		sumTicks          int64
		bufWords          int64
		doneWords         int64
		completedInWindow int64
		cs                []classAcc
	)
	if len(classes) > 0 {
		//drstrange:alloc-ok one slice per serve point, sized to the class table
		cs = make([]classAcc, len(classes))
	}
	//drstrange:alloc-ok one closure per serve point, not per tick; the hot loop only invokes it
	onDone := func(r *InjectedRequest) {
		src.done(r)
		switch {
		case r.Failed:
			// Deadline-failed at a tripped shard: counted by the
			// availability stats (ServeHealth.FailedRequests), never by
			// the serving metrics.
		case r.Shed || r.Missed:
			// Refused by admission or failed at the class deadline: an
			// error outcome, visible in the shed/miss counters but never
			// in the latency percentiles.
			if r.SubmitTick >= cfg.WarmupTicks {
				accountRefusal(&p, cs, r)
			}
		default:
			if r.FinishTick >= cfg.WarmupTicks && r.FinishTick < end {
				completedInWindow++
			}
			if r.SubmitTick < cfg.WarmupTicks {
				return // warmup request: load, not measurement
			}
			p.Completed++
			l := r.Latency()
			hist.Add(l)
			sumTicks += l
			bufWords += int64(r.BufferWords)
			doneWords += int64(r.Words)
			if cs != nil && r.Class >= 0 {
				cs[r.Class].accountCompletion(classes, r, l, reqBits, cfg.WarmupTicks, end)
			}
		}
	}
	sys.OnInjectionComplete(onDone)

	// submit injects one arrival; seq picks its class. attempt > 0 marks
	// a closed-loop retry.
	//drstrange:alloc-ok one closure per serve point, not per tick; the hot loop only invokes it
	submit := func(tick int64, client, seq, attempt int) {
		if tick < injectFrom {
			return
		}
		if tick >= cfg.WarmupTicks {
			p.Submitted++
			if attempt > 0 {
				p.Retried++
			}
			if cs != nil {
				a := &cs[seq%len(classes)]
				a.submitted++
				if attempt > 0 {
					a.retried++
				}
			}
		}
		if classes != nil {
			sys.InjectRNGClass(client, tick, words, seq%len(classes))
		} else {
			sys.InjectRNG(client, tick, words)
		}
	}

	// Advance in bounded slices, feeding each slice's arrivals to the
	// injection port just before stepping across it. The StepTo slicing
	// invariant keeps the walk bit-identical to one unsliced call, and
	// injections carry timestamps, so chunked feeding is equivalent to
	// whole-window pre-generation — minus the O(all arrivals) schedule.
	//
	// Periodic checkpoint/resume (long-window points): every Checkpoint
	// ticks the System is snapshotted and replaced by its own restore,
	// exercising the full snapshot path on the measured run. Restore ≡
	// replay, so the measurement is byte-identical to Checkpoint = 0.
	nextCkpt := int64(1) << 62
	if cfg.Checkpoint > 0 {
		nextCkpt = sys.Now() + cfg.Checkpoint
	}
	for sys.Now() < end {
		if ctx.Err() != nil {
			return ServePoint{}
		}
		sys.StepTo(src.feed(sys.Now(), end, submit))
		if sys.Now() >= nextCkpt {
			sys = RestoreSystem(sys.Snapshot())
			sys.OnInjectionComplete(onDone)
			nextCkpt = sys.Now() + cfg.Checkpoint
		}
	}
	// Drain: a measurement must not censor slow requests, so step until
	// every one completes. The horizon bounds a saturated backlog
	// (arrivals stopped at end — closed-loop clients stop resubmitting,
	// since wake-ups pushed by drain-phase completions are never popped —
	// so it always drains; 20 extra windows covers offered loads far
	// beyond capacity).
	horizon := end + 20*cfg.WindowTicks
	for sys.OutstandingInjections() > 0 && sys.Now() < horizon {
		if ctx.Err() != nil {
			return ServePoint{}
		}
		sys.StepTo(sys.Now() + 4095)
	}

	achievedBits := float64(completedInWindow) * reqBits
	p.AchievedMbps = achievedBits / float64(cfg.WindowTicks) * trng.MemCyclesPerSecond / 1e6
	if doneWords > 0 {
		p.BufferHitRate = float64(bufWords) / float64(doneWords)
	}
	if hist.N() > 0 {
		// Integer tick latencies summed as integers equal the reference's
		// float64 accumulation exactly (every partial sum is far below
		// 2^53), and the histogram's nearest-rank quantiles are defined
		// to match sort-and-index bit for bit.
		p.MeanTicks = float64(sumTicks) / float64(hist.N())
		p.P50 = hist.Percentile(0.50)
		p.P95 = hist.Percentile(0.95)
		p.P99 = hist.Percentile(0.99)
		p.P999 = hist.Percentile(0.999)
	}
	p.PeakOutstanding = int64(sys.PeakOutstandingInjections())
	p.RecycledRequests = sys.RecycledInjections()
	p.LatencyBins = hist.Bins()
	if cfg.Shards > 1 {
		p.Shards = cfg.Shards
		p.Router = cfg.Router
		p.PerShard = sys.ShardStats()
	}
	if healthOn {
		h := sys.HealthStats(cfg.WindowTicks)
		p.Health = &h
	}
	if cs != nil {
		p.PerClass = classStats(classes, cs, cfg.WindowTicks)
	}
	return p
}

// arrivalSource is a serve point's arrival process: open-loop arrivals
// (openArrivals) or a closed-loop client population (closedArrivals).
type arrivalSource interface {
	// feed submits the arrivals of the slice that starts at now, in
	// tick order, and returns the slice's last tick (at most end-1).
	// seq picks the request's class; attempt > 0 marks a retry.
	feed(now, end int64, submit func(tick int64, client, seq, attempt int)) int64
	// done reports a finished request — served, shed, missed or failed
	// — back to the arrival process.
	done(r *InjectedRequest)
}

// openArrivals is the open-loop arrival process: aggregate arrivals
// drawn one serveSlice ahead, rotating over the clients and classes in
// arrival order. Completions do not feed back.
type openArrivals struct {
	chunk   *workload.ChunkedArrivals
	clients int
	n       int // arrivals drawn so far
}

//drstrange:noalloc
func (o *openArrivals) feed(now, end int64, submit func(tick int64, client, seq, attempt int)) int64 {
	target := now + serveSlice
	if target > end-1 {
		target = end - 1
	}
	//drstrange:alloc-ok per-slice, not per-tick, and non-escaping; pinned by the serve allocs/op gate
	o.chunk.TakeThrough(target, end, func(tick int64) {
		submit(tick, o.n%o.clients, o.n, 0)
		o.n++
	})
	return target
}

func (o *openArrivals) done(*InjectedRequest) {}

// closedArrivals is the closed-loop arrival process: each client's life
// cycle runs through workload.ClosedLoop — submit, wait for the
// completion hook, think (or back off after a shed/miss/failure),
// submit again — and a client's class is fixed by its index.
// Everything the loop consumes — completion ticks, think draws, backoff
// jitter — is engine-invariant, so the schedule is byte-identical
// across both engines and both event-queue modes.
type closedArrivals struct {
	cl    *workload.ClosedLoop
	slice int64
}

// newClosedArrivals builds a population of pop clients with mean think
// time think. Wake-ups are popped and injected at executed ticks
// between StepTo slices, so the slice is bounded by a quarter of the
// think time (a completion's follow-up submission lands promptly), by
// serveSlice above, and by a floor below.
func newClosedArrivals(pop int, think int64, seed uint64) *closedArrivals {
	slice := think / 4
	if slice > serveSlice {
		slice = serveSlice
	}
	if slice < 64 {
		slice = 64
	}
	return &closedArrivals{cl: workload.NewClosedLoop(pop, think, seed), slice: slice}
}

//drstrange:noalloc
func (c *closedArrivals) feed(now, end int64, submit func(tick int64, client, seq, attempt int)) int64 {
	for {
		client, attempt, ok := c.cl.PopReady(now)
		if !ok {
			break
		}
		submit(now, client, client, attempt)
	}
	target := now + c.slice
	if nr := c.cl.NextReady(); nr <= target {
		// Stop exactly at the next known wake-up so its submission is
		// injected at its ready tick, not a slice boundary later.
		target = nr - 1
	}
	if target > end-1 {
		target = end - 1
	}
	if target < now {
		target = now
	}
	return target
}

//drstrange:noalloc
func (c *closedArrivals) done(r *InjectedRequest) {
	if r.Failed || r.Shed || r.Missed {
		c.cl.OnFailure(r.Client, r.FinishTick)
		return
	}
	c.cl.OnSuccess(r.Client, r.FinishTick)
}

// classAcc is one request class's running accumulators while a point
// streams; classStats finalizes it into the reported ClassStat.
type classAcc struct {
	submitted int64
	completed int64
	shed      int64
	missed    int64
	retried   int64
	late      int64 // completions past the class deadline
	sumTicks  int64
	goodBits  float64
	hist      metrics.Histogram
}

// accountRefusal folds a shed or deadline-missed measured request into
// the point's and its class's counters.
//
//drstrange:noalloc
func accountRefusal(p *ServePoint, cs []classAcc, r *InjectedRequest) {
	if r.Shed {
		p.Shed++
		if cs != nil && r.Class >= 0 {
			cs[r.Class].shed++
		}
		return
	}
	p.DeadlineMissed++
	if cs != nil && r.Class >= 0 {
		cs[r.Class].missed++
	}
}

// accountCompletion folds a measured completion with latency l into the
// class's accumulators: percentile histogram, lateness against the
// class deadline, and window goodput.
//
//drstrange:noalloc
func (a *classAcc) accountCompletion(classes []RequestClass, r *InjectedRequest, l int64, reqBits float64, warmup, end int64) {
	a.completed++
	a.hist.Add(l)
	a.sumTicks += l
	dl := classes[r.Class].DeadlineTicks
	late := dl > 0 && l > dl
	if late {
		a.late++
	}
	if r.FinishTick >= warmup && r.FinishTick < end && !late {
		a.goodBits += reqBits
	}
}

// classStats finalizes the per-class accumulators into reported stats,
// in class-table order.
func classStats(classes []RequestClass, cs []classAcc, windowTicks int64) []ClassStat {
	out := make([]ClassStat, len(classes))
	for i := range classes {
		a := &cs[i]
		st := ClassStat{
			Class:          classes[i].Name,
			Priority:       classes[i].Priority,
			DeadlineTicks:  classes[i].DeadlineTicks,
			Submitted:      a.submitted,
			Completed:      a.completed,
			Shed:           a.shed,
			DeadlineMissed: a.missed,
			Retried:        a.retried,
		}
		if a.hist.N() > 0 {
			st.MeanTicks = float64(a.sumTicks) / float64(a.hist.N())
			st.P50 = a.hist.Percentile(0.50)
			st.P99 = a.hist.Percentile(0.99)
		}
		st.GoodputMbps = a.goodBits / float64(windowTicks) * trng.MemCyclesPerSecond / 1e6
		if den := a.completed + a.missed; den > 0 {
			st.ViolationFrac = float64(a.late+a.missed) / float64(den)
		}
		out[i] = st
	}
	return out
}

// servePointRunConfig lowers a normalized ServeConfig onto the
// RunConfig a serve point's System is built from — one definition
// shared by the cold path and the warm-image builder, so a forked warm
// System is structurally identical to a cold one.
func servePointRunConfig(cfg ServeConfig) RunConfig {
	rcfg := RunConfig{
		Design:       cfg.Design,
		Mix:          cfg.Background,
		Mech:         cfg.Mech,
		BufferWords:  cfg.BufferWords,
		Instructions: serveTarget,
		Seed:         cfg.Seed,
		Clients:      cfg.Clients,
		Shards:       cfg.Shards,
		Router:       cfg.Router,
		Classes:      classTable(cfg.Classes),
		Admission:    cfg.Admission,
		AdmitDepth:   cfg.AdmitDepth,
	}
	if cfg.Health == "on" {
		rcfg.Health = trng.DefaultHealthConfig()
		rcfg.Fault = trng.DefaultFaultProfile(cfg.Fault)
	}
	return rcfg
}

// buildWarmImage runs the background-only warmup once and freezes it:
// a System with no injected arrivals stepped to WarmupTicks, then
// snapshotted. Health monitoring (if on) runs during the warmup under
// a zero-length availability window, so warmup-period trips never
// count toward any point's downtime — exactly as in a cold run, where
// the window also opens at WarmupTicks.
func buildWarmImage(cfg ServeConfig) *SystemImage {
	sys := NewSystem(servePointRunConfig(cfg))
	if cfg.Health == "on" {
		sys.SetAvailabilityWindow(cfg.WarmupTicks, cfg.WarmupTicks)
	}
	for sys.Now() < cfg.WarmupTicks {
		target := sys.Now() + serveSlice
		if target > cfg.WarmupTicks-1 {
			target = cfg.WarmupTicks - 1
		}
		sys.StepTo(target)
	}
	return sys.Snapshot()
}

// ServeCurves runs the offered-load sweep for each design and renders
// one Figure per design: rows are offered loads, columns the serving
// metrics (latencies in ns). This is what cmd/rngbench prints and what
// BenchmarkServeLoad tracks.
func ServeCurves(designs []Design, cfg ServeConfig, offeredMbps []float64) []Figure {
	figs, err := ServeCurvesCtx(context.Background(), designs, cfg, offeredMbps)
	if err != nil {
		// Uncancellable context: the error is a real configuration
		// problem, not an abort.
		//drstrange:alloc-ok cold path: Sprintf only feeds the unreachable-config panic
		panic(fmt.Sprintf("sim: %v", err))
	}
	return figs
}

// ServeCurvesCtx is ServeCurves under a context: designs fan out across
// the worker pool and every underlying sweep aborts promptly on
// cancellation, returning (nil, ctx.Err()). A real (non-cancellation)
// error from any design's sweep is propagated — the first one in design
// order, deterministically — instead of leaving a zero Figure in the
// result.
func ServeCurvesCtx(ctx context.Context, designs []Design, cfg ServeConfig, offeredMbps []float64) ([]Figure, error) {
	cfg.normalize()
	figs := make([]Figure, len(designs))
	errs := make([]error, len(designs))
	parDoCtx(ctx, len(designs), func(i int) {
		c := cfg
		c.Design = designs[i]
		figs[i], _, errs[i] = ServeCurveCtx(ctx, c, offeredMbps)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return figs, nil
}

// ServeCurveCtx sweeps the offered loads for cfg.Design alone and
// renders the single latency-vs-load Figure alongside the measured
// points (the figure's rows plus the streaming pipeline's cost counters
// the figure does not print). It is the unit ServeCurves fans out,
// exported so callers that need per-design progress or per-point stats
// (the public scenario API) can run one design at a time while the
// worker pool still bounds the underlying simulations.
func ServeCurveCtx(ctx context.Context, cfg ServeConfig, offeredMbps []float64) (Figure, []ServePoint, error) {
	cfg.normalize()
	points, err := ServeLoadCtx(ctx, cfg, offeredMbps)
	if err != nil {
		return Figure{}, nil, err
	}
	// Single-shard figures keep their historical ID and title bytes;
	// sharded sweeps announce the topology in both. The availability
	// columns appear only when a fault is configured — gated on the
	// configuration, never on the measured data, so a clean run with
	// health monitoring on renders byte-identically to monitoring off
	// (zero false trips is a pinned property, not a formatting
	// accident).
	id := fmt.Sprintf("ServeLoad-%s", cfg.Design)
	topo := ""
	if cfg.Shards > 1 {
		id = fmt.Sprintf("ServeLoad-%s-x%d", cfg.Design, cfg.Shards)
		topo = fmt.Sprintf("%d shards via %s, ", cfg.Shards, cfg.Router)
	}
	degraded := cfg.Fault != ""
	fault := ""
	if degraded {
		fault = fmt.Sprintf(", fault=%s", cfg.Fault)
	}
	// The closed-loop and per-class columns are gated on the
	// configuration (ThinkTicks, Classes, Admission), never on measured
	// data, exactly like the availability columns: an unclassed open-loop
	// sweep renders byte-identically to every historical figure.
	closed := cfg.ThinkTicks > 0
	classed := len(cfg.Classes) > 0
	mode := fmt.Sprintf("%s, %d clients", cfg.Arrival, cfg.Clients)
	if closed {
		mode = fmt.Sprintf("closed-loop think=%d", cfg.ThinkTicks)
	}
	extra := fault
	if classed {
		extra += fmt.Sprintf(", classes=%s", strings.Join(cfg.Classes, "+"))
	}
	if cfg.Admission != AdmissionNone {
		extra += fmt.Sprintf(", admission=%s depth=%d", cfg.Admission, cfg.AdmitDepth)
	}
	labels := []string{"offered", "achieved", "p50ns", "p95ns", "p99ns", "p999ns", "bufhit", "served"}
	if degraded {
		labels = append(labels, "nines", "trips", "downtime", "failed", "rerouted")
	}
	if closed {
		labels = append(labels, "clients", "retried", "shed")
	}
	if classed {
		for _, name := range cfg.Classes {
			labels = append(labels, "p99:"+name, "viol:"+name, "good:"+name, "shed:"+name)
		}
	}
	f := Figure{
		ID: id,
		Title: fmt.Sprintf("%s serving %s %dB requests (%s, %sbg=%s%s)",
			cfg.Design, cfg.Mech.Name, cfg.RequestBytes, mode, topo, bgName(cfg.Background), extra),
		// "served" is Completed/Submitted: below 1.0 the drain
		// horizon censored the slowest requests, so the latency
		// percentiles on that row are optimistic.
		Labels: labels,
	}
	for _, pt := range points {
		servedFrac := 0.0
		if pt.Submitted > 0 {
			servedFrac = float64(pt.Completed) / float64(pt.Submitted)
		}
		values := []float64{
			pt.OfferedMbps,
			pt.AchievedMbps,
			pt.P50 * TickNanos,
			pt.P95 * TickNanos,
			pt.P99 * TickNanos,
			pt.P999 * TickNanos,
			pt.BufferHitRate,
			servedFrac,
		}
		if degraded {
			h := pt.Health
			if h == nil {
				h = &ServeHealth{}
			}
			values = append(values,
				h.Nines,
				float64(h.Trips),
				float64(h.DowntimeTicks),
				float64(h.FailedRequests),
				float64(h.ReroutedRequests),
			)
		}
		if closed {
			values = append(values,
				float64(pt.Population),
				float64(pt.Retried),
				float64(pt.Shed),
			)
		}
		if classed {
			for i := range cfg.Classes {
				var c ClassStat
				if i < len(pt.PerClass) {
					c = pt.PerClass[i]
				}
				values = append(values,
					c.P99*TickNanos,
					c.ViolationFrac,
					c.GoodputMbps,
					float64(c.Shed),
				)
			}
		}
		f.Series = append(f.Series, Series{
			Name:   fmt.Sprintf("%gMb/s", pt.OfferedMbps),
			Values: values,
		})
	}
	return f, points, nil
}

func bgName(m workload.Mix) string {
	if len(m.Apps) == 0 && m.RNGMbps <= 0 {
		return "none"
	}
	if m.Name != "" {
		return m.Name
	}
	return fmt.Sprintf("%d apps", len(m.Apps))
}
