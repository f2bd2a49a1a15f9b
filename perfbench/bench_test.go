package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	l := newLane(time.Time{})
	// point [0,100) holds step [10,60) and inject aggregate (2 calls,
	// 7ns); step holds a hist_add aggregate (3 calls, 9ns) and a
	// closed-loop step aggregate of 20ns whose nested hook time is 5ns.
	l.spans = []span{
		{Name: "bench.point", Start: 0, End: 100, Parent: -1},
		{Name: "sim.step", Start: 10, End: 60, Parent: 0},
	}
	l.aggs = []aggSpan{
		{Name: "sim.inject", Parent: 0, Count: 2, Total: 7},
		{Name: "metrics.hist_add", Parent: 1, Count: 3, Total: 9},
		{Name: "sim.step", Parent: 0, Count: 4, Total: 20, Child: 5},
		{Name: "metrics.hist_add", Parent: 0, Within: "sim.step", Count: 1, Total: 5},
	}
	got := selfTimes([]*lane{l})
	want := map[string]spanStat{
		"bench.point":      {Count: 1, Total: 100, Self: 100 - 50 - 7 - 20},
		"sim.step":         {Count: 5, Total: 70, Self: (50 - 9) + (20 - 5)},
		"sim.inject":       {Count: 2, Total: 7, Self: 7},
		"metrics.hist_add": {Count: 4, Total: 14, Self: 14},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestLaneNesting(t *testing.T) {
	l := newLane(time.Time{})
	root := l.begin("bench.point")
	step := l.begin("sim.step")
	l.call("metrics.hist_add", "", func() {})
	l.end(step)
	l.end(root)
	if l.spans[step].Parent != root || l.aggs[0].Parent != step {
		t.Fatalf("parents: span %d, aggregate %d", l.spans[step].Parent, l.aggs[0].Parent)
	}
	defer func() {
		if recover() == nil {
			t.Error("closing spans out of order did not panic")
		}
	}()
	a, _ := l.begin("a"), l.begin("b")
	l.end(a)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the metric-name grammar and that BENCHMARK.json
// declares exactly the metrics and workloads this program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q is malformed", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", ".x", "a b", "a/b", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bad bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("workloads: %v", spec.Workloads)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s", i, w, workloadNames[i])
		}
	}
}

// TestSmoke runs every workload on a short window at two seeds, traced,
// and checks the result: every output check passed — including the
// re-drive reproducing the untraced run exactly and the ticked
// reference engine agreeing — and every per-layer metric reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	ws := newWorkloads(20_000, 3_000)
	for _, name := range slices.Concat(workloadNames, extraWorkloads) {
		for _, seed := range []uint64{0, 1} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var out, diag bytes.Buffer
				res, err := runBench(context.Background(), options{
					workload: name, seed: seed, trace: true, minRuns: 2, spanDir: t.TempDir(),
				}, ws[name], &out, &diag)
				if err != nil {
					t.Fatalf("%v\n%s", err, diag.String())
				}
				for _, line := range strings.Split(strings.TrimSpace(diag.String()), "\n") {
					if line != "" {
						t.Error(line)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(perLayer) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
				}
				if res.Metrics["api.tracing_overhead"].Value <= 0 || res.Metrics["sim.ticks"].Value <= 0 {
					t.Errorf("tracing overhead %v, ticks %v", res.Metrics["api.tracing_overhead"], res.Metrics["sim.ticks"])
				}
			})
		}
	}
}
