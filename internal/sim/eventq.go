package sim

// The event engine's next-event index. The event loop (System.StepTo)
// keeps one cached next-event bound per shard and must find the minimum
// after every event. A linear min-over-shards scan costs O(N) per event,
// which defeats the point of skipping ticks once hundred-shard configs
// are in play, so by default the bounds live in an indexed binary
// min-heap with one slot per shard: executing a shard dirties its
// cached bound, and the next lookup recomputes only the dirty shards'
// bounds and sifts their slots (O(log n) each).
//
// The linear scan stays selectable (DRSTRANGE_EVENTQ=scan,
// SetEventQueue) as a named differential oracle, run by the CI matrix:
// both modes must produce byte-identical results on every golden,
// exactly like the ticked engine pins the event engine. The knob
// mirrors the engine knob in engine.go; validation lives in env.go.

import "sync"

// Event-queue mode names accepted by SetEventQueue and
// DRSTRANGE_EVENTQ.
const (
	// EventQueueHeap is the indexed binary heap (default): O(log n) per
	// event in the shard count.
	EventQueueHeap = "heap"
	// EventQueueScan is the reference linear min-over-shards scan, the
	// heap's differential oracle.
	EventQueueScan = "scan"
)

var (
	eventqMu  sync.Mutex
	eventqSet string // SetEventQueue override; "" = unset
)

// EventQueue reports which next-event index the event engine uses:
// the SetEventQueue override if set, else DRSTRANGE_EVENTQ, else the
// indexed heap.
func EventQueue() string {
	eventqMu.Lock()
	defer eventqMu.Unlock()
	if eventqSet != "" {
		return eventqSet
	}
	return envEventQueue()
}

// EventQueueOverride reports the raw SetEventQueue override ("" when
// unset), so callers applying a temporary override can restore the
// exact prior state.
func EventQueueOverride() string {
	eventqMu.Lock()
	defer eventqMu.Unlock()
	return eventqSet
}

// SetEventQueue overrides the event-queue mode for subsequently built
// Systems (the differential tests); "" restores the default resolution.
// Unknown names select the default heap.
func SetEventQueue(name string) {
	eventqMu.Lock()
	defer eventqMu.Unlock()
	eventqSet = name
}

// boundHeap is an indexed binary min-heap over the shards' cached
// next-event bounds: one slot per shard, ordered by tick with ties by
// shard index (determinism never depends on the tie-break — equal-tick
// shards all execute at that tick — but a total order keeps the
// structure canonical). Updating a shard's bound sifts its slot in
// place, so the heap never holds more than one entry per shard.
type boundHeap struct {
	order []int32 // heap order: shard indices
	slot  []int32 // slot[k] is shard k's position in order
	tick  []int64 // tick[k] is shard k's current bound
}

// newBoundHeap builds the heap for n shards, every bound at farFuture
// until the shard's first execution sets it.
func newBoundHeap(n int) boundHeap {
	h := boundHeap{order: make([]int32, n), slot: make([]int32, n), tick: make([]int64, n)}
	for i := range h.order {
		h.order[i], h.slot[i], h.tick[i] = int32(i), int32(i), farFuture
	}
	return h
}

// min returns the smallest bound in the heap (a System has at least one
// shard).
//
//drstrange:noalloc
func (h *boundHeap) min() int64 { return h.tick[h.order[0]] }

// set updates shard's bound to tick and restores the heap order.
//
//drstrange:noalloc
func (h *boundHeap) set(shard int32, tick int64) {
	h.tick[shard] = tick
	i := int(h.slot[shard])
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	n := len(h.order)
	for {
		min := i
		if l := 2*i + 1; l < n && h.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *boundHeap) less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	if h.tick[a] != h.tick[b] {
		return h.tick[a] < h.tick[b]
	}
	return a < b
}

func (h *boundHeap) swap(i, j int) {
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.slot[h.order[i]] = int32(i)
	h.slot[h.order[j]] = int32(j)
}
