package sim

// The simulation engines. System.StepTo advances a simulation with one
// of two inner loops over the same component models:
//
//   - The event-driven engine (default) is one event loop for any shard
//     count. It walks executed ticks only: after ticking the due
//     components at `now`, it asks each for NextEventTick(now) — a
//     lower bound on the next tick at which that component's state can
//     change — and fast-forwards to the minimum, crediting the skipped
//     ticks through AccountSkip.
//   - The ticked engine (DRSTRANGE_ENGINE=ticked) is the reference
//     tick-by-tick walk, a named differential oracle that the CI matrix
//     runs (as it runs the linear bound scan, eventq.go).
//
// The engine invariant has two halves. NextEventTick must never
// overshoot a state change: for every component and every tick t in
// (now, NextEventTick(now)), ticking the component at t — given that no
// other component acts either, which the minimum guarantees — may
// change nothing but per-tick counters. And AccountSkip must replay
// each such per-tick update exactly, resets included: core stall
// counters, RNG-mode tick counts, active-standby energy ticks,
// greedy-fill idle counters, and the starvation counter, which a tick
// resets when the RNG queue is empty, no regular read waits, or the
// deprioritized side flips. A counter that an executed tick can reset
// is not a plain accumulator: crediting only its growth over a skip
// diverges from the ticked engine. Undershooting is always safe: the
// engine executes a tick that turns out to be a no-op and asks again.
// Anything time-based a component adds (a new timer, a new threshold
// counter) must either be reflected in its NextEventTick bound or force
// `now+1`.
//
// Under this invariant the two engines produce bit-identical results —
// every stat, every figure byte — which TestEngineDifferential* and
// TestEngineLockstepStarvationCounter enforce across designs,
// mechanisms, schedulers, and priorities.
//
// The knob matrix (DRSTRANGE_ENGINE / DRSTRANGE_WORKERS /
// DRSTRANGE_INSTR, with matching flags on the cmd/ drivers) is defined
// and validated in env.go.

import (
	"sync"
)

// Engine names accepted by SetEngine and DRSTRANGE_ENGINE.
const (
	// EngineEvent is the event-driven, tick-skipping engine (default).
	EngineEvent = "event"
	// EngineTicked is the reference tick-by-tick engine.
	EngineTicked = "ticked"
)

var (
	engineMu  sync.Mutex
	engineSet string // SetEngine override; "" = unset
)

// Engine reports which inner loop Run uses: the SetEngine override if
// set, else DRSTRANGE_ENGINE, else the event-driven engine.
func Engine() string {
	engineMu.Lock()
	defer engineMu.Unlock()
	if engineSet != "" {
		return engineSet
	}
	return envEngine()
}

// EngineOverride reports the raw SetEngine override ("" when unset),
// letting callers that apply a temporary override — the public
// scenario API — restore the exact prior state rather than the default
// resolution.
func EngineOverride() string {
	engineMu.Lock()
	defer engineMu.Unlock()
	return engineSet
}

// SetEngine overrides the engine for subsequent runs (the cmd/ drivers'
// -engine flag and the differential tests); "" restores the default
// resolution. Unknown names select the default event engine.
func SetEngine(name string) {
	engineMu.Lock()
	defer engineMu.Unlock()
	engineSet = name
}
