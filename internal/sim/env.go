package sim

// The DRSTRANGE_* environment knobs, defined and validated in one
// place. Every driver and benchmark honors them; cmd/drstrange,
// cmd/figures, and cmd/rngbench expose matching flags.
//
// Accepted values:
//
//	DRSTRANGE_INSTR    positive integer — per-core instruction budget of
//	                   a measured run (default 100000). Larger budgets
//	                   sharpen statistics at proportional cost.
//	DRSTRANGE_WORKERS  positive integer — parallel-simulation worker
//	                   pool size (default GOMAXPROCS). Output is
//	                   byte-identical at any count.
//	DRSTRANGE_ENGINE   "event" (default) or "ticked" — inner-loop
//	                   selection; the two engines produce bit-identical
//	                   results.
//	DRSTRANGE_EVENTQ   "heap" (default) or "scan" — the event engine's
//	                   next-event index (indexed bound heap vs the
//	                   reference linear scan); the two modes produce
//	                   bit-identical results.
//	DRSTRANGE_SHARDS   positive integer — channel shard count of serve
//	                   scenarios (default 1). Serve-only: warned about
//	                   and ignored on figure/run scenario kinds.
//	DRSTRANGE_ROUTER   router policy name of serve scenarios (default
//	                   round-robin; see RouterNames). Serve-only, like
//	                   DRSTRANGE_SHARDS.
//	DRSTRANGE_HEALTH   "on" or "off" (default) — online entropy health
//	                   monitoring of serve scenarios. Serve-only, like
//	                   DRSTRANGE_SHARDS. A configured fault implies
//	                   "on".
//	DRSTRANGE_FAULT    fault profile name of serve scenarios (see
//	                   trng.FaultNames: bias-ramp, stuck-bits, burst;
//	                   default none). Serve-only; implies health
//	                   monitoring unless health is explicitly "off".
//	DRSTRANGE_WARM     "on" or "off" (default) — checkpointed warm
//	                   starts of serve scenarios: one warmed system
//	                   image per configuration is snapshotted and
//	                   forked across offered-load points instead of
//	                   re-running every warmup. Serve-only, like
//	                   DRSTRANGE_SHARDS.
//	DRSTRANGE_CLIENTS  positive integer — request client count of
//	                   open-loop serve scenarios (default 8; ignored
//	                   by closed-loop points, whose population is sized
//	                   from the offered load). Serve-only, like
//	                   DRSTRANGE_SHARDS.
//	DRSTRANGE_ADMISSION admission policy name of serve scenarios (see
//	                   AdmissionNames: none, drop-lowest-class,
//	                   threshold-by-depth; default none). Serve-only,
//	                   like DRSTRANGE_SHARDS.
//
// A knob set to anything outside its accepted values is ignored with a
// single warning on stderr (it used to fall back silently, which made
// typos like DRSTRANGE_INSTR=1e6 indistinguishable from the default).
// An environment variable with the DRSTRANGE_ prefix that names no knob
// at all (DRSTRANGE_SHARD, say) also warns once — see
// WarnUnknownEnvKnobs.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"drstrange/internal/trng"
)

var (
	envWarnMu   sync.Mutex
	envWarned   = map[string]bool{}
	envWarnDest = io.Writer(os.Stderr) // swapped out by the env tests
)

// envWarnOnce emits one warning per knob per process on stderr.
func envWarnOnce(knob, msg string) {
	envWarnMu.Lock()
	defer envWarnMu.Unlock()
	if envWarned[knob] {
		return
	}
	envWarned[knob] = true
	fmt.Fprintf(envWarnDest, "drstrange: %s\n", msg)
}

// envPositiveInt resolves an integer knob: unset returns (0, false);
// a positive integer returns it; anything else warns once and returns
// (0, false) so the caller applies its default.
func envPositiveInt(knob string) (int64, bool) {
	v := os.Getenv(knob)
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 {
		envWarnOnce(knob, fmt.Sprintf("ignoring %s=%q: want a positive integer", knob, v))
		return 0, false
	}
	return n, true
}

// envInstr resolves DRSTRANGE_INSTR. Not cached: tests and long-lived
// callers may legitimately change the budget between runs.
func envInstr() int64 {
	if n, ok := envPositiveInt("DRSTRANGE_INSTR"); ok {
		return n
	}
	return 100_000
}

// envWorkers resolves DRSTRANGE_WORKERS; 0 means unset (the pool falls
// back to GOMAXPROCS).
func envWorkers() int {
	if n, ok := envPositiveInt("DRSTRANGE_WORKERS"); ok {
		return int(n)
	}
	return 0
}

// envEngine caches the DRSTRANGE_ENGINE lookup: Engine() sits on the
// memo-key path, once per simulation request.
var envEngine = sync.OnceValue(func() string {
	switch v := os.Getenv("DRSTRANGE_ENGINE"); v {
	case "", EngineEvent:
		return EngineEvent
	case EngineTicked:
		return EngineTicked
	default:
		envWarnOnce("DRSTRANGE_ENGINE",
			fmt.Sprintf("ignoring DRSTRANGE_ENGINE=%q: want %q or %q", v, EngineEvent, EngineTicked))
		return EngineEvent
	}
})

// envEventQueue caches the DRSTRANGE_EVENTQ lookup: EventQueue() sits
// on the memo-key path like Engine().
var envEventQueue = sync.OnceValue(func() string {
	switch v := os.Getenv("DRSTRANGE_EVENTQ"); v {
	case "", EventQueueHeap:
		return EventQueueHeap
	case EventQueueScan:
		return EventQueueScan
	default:
		envWarnOnce("DRSTRANGE_EVENTQ",
			fmt.Sprintf("ignoring DRSTRANGE_EVENTQ=%q: want %q or %q", v, EventQueueHeap, EventQueueScan))
		return EventQueueHeap
	}
})

// DefaultShards resolves the serve layer's channel shard count:
// DRSTRANGE_SHARDS, or 1. Not cached — tests and long-lived callers
// may change the topology between sweeps.
func DefaultShards() int {
	if n, ok := envPositiveInt("DRSTRANGE_SHARDS"); ok {
		return int(n)
	}
	return 1
}

// DefaultRouter resolves the serve layer's request router:
// DRSTRANGE_ROUTER, or round-robin. An unknown name warns once (with
// the sorted valid list) and falls back to the default, like every
// other knob.
func DefaultRouter() string {
	v := os.Getenv("DRSTRANGE_ROUTER")
	if v == "" {
		return RouterRoundRobin
	}
	if !ValidRouter(v) {
		envWarnOnce("DRSTRANGE_ROUTER",
			fmt.Sprintf("ignoring DRSTRANGE_ROUTER=%q: want one of %s", v, strings.Join(RouterNames(), ", ")))
		return RouterRoundRobin
	}
	return v
}

// DefaultHealth resolves the serve layer's health-monitoring switch:
// DRSTRANGE_HEALTH, or "off". Anything but "on"/"off" warns once and
// falls back.
func DefaultHealth() string {
	switch v := os.Getenv("DRSTRANGE_HEALTH"); v {
	case "", "off":
		return "off"
	case "on":
		return "on"
	default:
		envWarnOnce("DRSTRANGE_HEALTH",
			fmt.Sprintf("ignoring DRSTRANGE_HEALTH=%q: want \"on\" or \"off\"", v))
		return "off"
	}
}

// DefaultFault resolves the serve layer's injected fault profile:
// DRSTRANGE_FAULT, or none. An unknown name warns once (with the
// sorted valid list) and falls back to no fault.
func DefaultFault() string {
	v := os.Getenv("DRSTRANGE_FAULT")
	if v == "" {
		return ""
	}
	if !trng.ValidFault(v) {
		envWarnOnce("DRSTRANGE_FAULT",
			fmt.Sprintf("ignoring DRSTRANGE_FAULT=%q: want one of %s", v, strings.Join(trng.FaultNames(), ", ")))
		return ""
	}
	return v
}

// DefaultWarm resolves the serve layer's checkpointed-warm-start
// switch: DRSTRANGE_WARM, or "off". Anything but "on"/"off" warns once
// and falls back.
func DefaultWarm() string {
	switch v := os.Getenv("DRSTRANGE_WARM"); v {
	case "", "off":
		return "off"
	case "on":
		return "on"
	default:
		envWarnOnce("DRSTRANGE_WARM",
			fmt.Sprintf("ignoring DRSTRANGE_WARM=%q: want \"on\" or \"off\"", v))
		return "off"
	}
}

// DefaultClients resolves the serve layer's open-loop client count:
// DRSTRANGE_CLIENTS, or 8. Not cached — tests and long-lived callers
// may change it between sweeps.
func DefaultClients() int {
	if n, ok := envPositiveInt("DRSTRANGE_CLIENTS"); ok {
		return int(n)
	}
	return 8
}

// DefaultAdmission resolves the serve layer's admission policy:
// DRSTRANGE_ADMISSION, or none. An unknown name warns once (with the
// sorted valid list) and falls back, like every other knob.
func DefaultAdmission() string {
	v := os.Getenv("DRSTRANGE_ADMISSION")
	if v == "" {
		return AdmissionNone
	}
	if !ValidAdmission(v) {
		envWarnOnce("DRSTRANGE_ADMISSION",
			fmt.Sprintf("ignoring DRSTRANGE_ADMISSION=%q: want one of %s", v, strings.Join(AdmissionNames(), ", ")))
		return AdmissionNone
	}
	return v
}

// WarnIgnoredServeKnobs warns once per knob when the serve-only
// knobs are set in the environment of a non-serve scenario
// kind: a figure or closed-loop run always models the paper's
// single-channel machine without health monitoring, so a set
// DRSTRANGE_SHARDS/ROUTER/HEALTH/FAULT would otherwise be silently
// dead.
func WarnIgnoredServeKnobs(kind string) {
	for _, knob := range []string{"DRSTRANGE_SHARDS", "DRSTRANGE_ROUTER", "DRSTRANGE_HEALTH", "DRSTRANGE_FAULT", "DRSTRANGE_WARM", "DRSTRANGE_CLIENTS", "DRSTRANGE_ADMISSION"} {
		if os.Getenv(knob) != "" {
			envWarnOnce(knob,
				fmt.Sprintf("%s applies only to serve scenarios; ignored on kind %q", knob, kind))
		}
	}
}

// knownEnvKnobs is the complete DRSTRANGE_ namespace. WarnUnknownEnvKnobs
// checks the environment against it; keep it in sync with the doc block
// above.
var knownEnvKnobs = map[string]bool{
	"DRSTRANGE_INSTR":     true,
	"DRSTRANGE_WORKERS":   true,
	"DRSTRANGE_ENGINE":    true,
	"DRSTRANGE_EVENTQ":    true,
	"DRSTRANGE_SHARDS":    true,
	"DRSTRANGE_ROUTER":    true,
	"DRSTRANGE_HEALTH":    true,
	"DRSTRANGE_FAULT":     true,
	"DRSTRANGE_WARM":      true,
	"DRSTRANGE_CLIENTS":   true,
	"DRSTRANGE_ADMISSION": true,
}

// WarnUnknownEnvKnobs warns once per variable about environment
// variables in the DRSTRANGE_ namespace that name no knob at all —
// typo detection (DRSTRANGE_SHARD for DRSTRANGE_SHARDS), since a
// misspelled knob is otherwise indistinguishable from an unset one.
// The public API's entry points call it once per execution.
func WarnUnknownEnvKnobs() {
	for _, kv := range os.Environ() {
		name, _, ok := strings.Cut(kv, "=")
		if !ok || !strings.HasPrefix(name, "DRSTRANGE_") || knownEnvKnobs[name] {
			continue
		}
		envWarnOnce(name,
			fmt.Sprintf("unrecognized environment variable %s (known knobs: %s)", name, strings.Join(sortedEnvKnobs(), ", ")))
	}
}

// sortedEnvKnobs lists the known knob names, sorted.
func sortedEnvKnobs() []string {
	out := make([]string, 0, len(knownEnvKnobs))
	for k := range knownEnvKnobs { //drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EnvKnobSnapshot returns the DRSTRANGE_* knobs currently set in the
// environment, keyed by knob name. Tooling that records knob
// provenance (cmd/benchjson's snapshot header, say) reads the namespace
// through this accessor instead of its own os.Getenv loop, so the
// envknob analyzer can keep every raw environment read pinned to this
// file.
func EnvKnobSnapshot() map[string]string {
	out := map[string]string{}
	for _, k := range sortedEnvKnobs() {
		if v := os.Getenv(k); v != "" {
			out[k] = v
		}
	}
	return out
}
