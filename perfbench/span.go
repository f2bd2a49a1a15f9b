package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own code around its calls into each
// layer's public functions; the simulator itself is not instrumented.
// Times are host nanoseconds since the trace's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same lane's spans; -1 at top level
	Point  int    `json:"point"`
}

// aggSpan folds many calls with the same name under one parent span —
// per-request or per-tick calls such as InjectRNG, Histogram.Add or a
// one-tick StepTo, too many to keep one by one. An aggregate counts as
// a child of Parent for the parent's self time, unless Within names
// another aggregate it ran inside (a completion hook's Histogram.Add
// inside StepTo): then it is already part of that aggregate's Child
// time instead.
type aggSpan struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Within string `json:"within,omitempty"`
	Point  int    `json:"point"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
	Child  int64  `json:"child_ns"`
}

// lane records the spans of one goroutine, one measured point at a
// time. A lane is not safe for concurrent use; each worker owns one.
type lane struct {
	epoch time.Time
	point int
	spans []span
	aggs  []aggSpan
	aggAt map[aggKey]int
	open  []int
	// off turns recording off: the lane keeps no spans and reads no
	// clocks, so a re-drive runs at untraced speed.
	off bool
	// countAllocs asks the serve re-drive to count the heap objects a
	// point allocates while serving (a sequential replay; the count is
	// process-wide).
	countAllocs bool
}

type aggKey struct {
	parent       int
	name, within string
}

func newLane(epoch time.Time) *lane {
	return &lane{epoch: epoch, aggAt: map[aggKey]int{}}
}

func (l *lane) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span nested in the innermost open one.
func (l *lane) begin(name string) int {
	if l.off {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: parent, Point: l.point})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (l *lane) end(id int) {
	if l.off {
		return
	}
	n := len(l.open)
	if n == 0 || l.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", l.spans[id].Name))
	}
	l.open = l.open[:n-1]
	l.spans[id].End = l.now()
}

// call runs f, folding its duration into the aggregate named name
// (see add), and returns the duration.
func (l *lane) call(name, within string, f func()) time.Duration {
	if l.off {
		f()
		return 0
	}
	t := time.Now()
	f()
	d := time.Since(t)
	l.add(name, within, d, 0)
	return d
}

// add folds one call of duration d, of which child was spent in nested
// aggregates, into the aggregate named name under the innermost open
// span; within names the aggregate the call itself ran inside, if any.
func (l *lane) add(name, within string, d, child time.Duration) {
	if l.off {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	key := aggKey{parent, name, within}
	i, ok := l.aggAt[key]
	if !ok {
		l.aggs = append(l.aggs, aggSpan{Name: name, Parent: parent, Within: within, Point: l.point})
		i = len(l.aggs) - 1
		l.aggAt[key] = i
	}
	a := &l.aggs[i]
	a.Count++
	a.Total += int64(d)
	a.Child += int64(child)
}

// spanStat sums the spans of one name: calls, total duration, and self
// time (duration minus the part covered by child spans).
type spanStat struct {
	Count int64
	Total int64
	Self  int64
}

// selfTimes returns, per span name, the call count, summed duration and
// summed self time over the given lanes. A span's self time is its
// duration minus the durations of its direct children, plain and
// aggregated; an aggregate's self time is its total minus its Child
// time.
func selfTimes(lanes []*lane) map[string]spanStat {
	out := map[string]spanStat{}
	for _, l := range lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for _, a := range l.aggs {
			if a.Parent >= 0 && a.Within == "" {
				child[a.Parent] += a.Total
			}
			st := out[a.Name]
			st.Count += a.Count
			st.Total += a.Total
			st.Self += a.Total - a.Child
			out[a.Name] = st
		}
		for i, s := range l.spans {
			st := out[s.Name]
			st.Count++
			st.Total += s.End - s.Start
			st.Self += s.End - s.Start - child[i]
			out[s.Name] = st
		}
	}
	return out
}

// writeSpans dumps every lane's spans and aggregates as JSON.
func writeSpans(path string, lanes []*lane) error {
	type dump struct {
		Spans []span    `json:"spans"`
		Aggs  []aggSpan `json:"aggregates"`
	}
	out := make([]dump, len(lanes))
	for i, l := range lanes {
		out[i] = dump{Spans: l.spans, Aggs: l.aggs}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
