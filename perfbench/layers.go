package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"drstrange/internal/dram"
	"drstrange/internal/metrics"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// maxReplayWords caps the isolated TRNG replays; a saturated overload
// point generates millions of words and the per-word cost is flat.
const maxReplayWords = 1 << 20

// trngReplay times the TRNG layer in isolation over words words: a
// D-RaNGe Generator's Word64 plus a clean EntropyStream's Emit per
// word, and a HealthMonitor observing the stream. It returns ns per
// word for generation and for health testing.
func trngReplay(words int64, seed uint64) (wordNs, healthNs float64) {
	words = min(words, maxReplayWords)
	if words <= 0 {
		return 0, 0
	}
	gen := trng.NewDRaNGeGenerator(trng.NewCellArray(1<<16, seed), 0.05)
	stream := trng.NewEntropyStream(seed, trng.FaultProfile{})
	buf := make([]uint64, words)
	t := time.Now()
	for i := range buf {
		gen.Word64()
		buf[i] = stream.Emit(int64(i))
	}
	wordNs = float64(time.Since(t).Nanoseconds()) / float64(words)
	mon := trng.NewHealthMonitor(trng.DefaultHealthConfig())
	t = time.Now()
	for _, w := range buf {
		if mon.ObserveWord(w) != trng.HealthOK {
			mon.Reset()
		}
	}
	healthNs = float64(time.Since(t).Nanoseconds()) / float64(words)
	return wordNs, healthNs
}

// traceOps is how many operations traceReplay draws in total, spread
// evenly over the application traces but at least traceOpsMin each.
const (
	traceOps    = 200_000
	traceOpsMin = 200
)

// traceReplay times the workload layer's application traces in
// isolation: each app of each mix gets the trace a System core would
// (same row base and seed), and NextOp is drawn from it. It returns ns
// per op, 0 when the mixes hold no applications.
func traceReplay(mixes []workload.Mix, seed uint64) float64 {
	geom := dram.DefaultGeometry()
	apps := 0
	for _, m := range mixes {
		apps += len(m.Apps)
	}
	if apps == 0 {
		return 0
	}
	perApp := max(traceOps/apps, traceOpsMin)
	var ops int64
	var total time.Duration
	for _, m := range mixes {
		for i, app := range m.Apps {
			tr := workload.MustByName(app).NewTrace(geom, 1000+i*4096, seed+uint64(i)*7919)
			t := time.Now()
			for range perApp {
				tr.NextOp()
			}
			total += time.Since(t)
			ops += int64(perApp)
		}
	}
	return float64(total.Nanoseconds()) / float64(ops)
}

// histReplay times the metrics layer's histogram: Add over the given
// latencies, then the four percentiles a serve point reads. It returns
// ns per Add and µs per Percentile.
func histReplay(latencies []int64) (addNs, pctUs float64) {
	if len(latencies) == 0 {
		return 0, 0
	}
	var h metrics.Histogram
	t := time.Now()
	for _, v := range latencies {
		h.Add(v)
	}
	addNs = float64(time.Since(t).Nanoseconds()) / float64(len(latencies))
	qs := []float64{0.50, 0.95, 0.99, 0.999}
	t = time.Now()
	for _, q := range qs {
		h.Percentile(q)
	}
	pctUs = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(qs))
	return addNs, pctUs
}

// modules maps each layer to its source directory, relative to the
// repository root.
var modules = []struct{ layer, dir string }{
	{"api", "."},
	{"sim", "internal/sim"},
	{"memctrl", "internal/memctrl"},
	{"dram", "internal/dram"},
	{"cpu", "internal/cpu"},
	{"core", "internal/core"},
	{"trng", "internal/trng"},
	{"workload", "internal/workload"},
	{"metrics", "internal/metrics"},
}

// linesOfCode counts the lines of a directory's non-test Go files (not
// its subdirectories).
func linesOfCode(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		fh, err := os.Open(f)
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			n++
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", f, err)
		}
	}
	return n, nil
}

// repoRoot finds the simulator's module root: the working directory or
// its parent, whichever holds the drstrange go.mod.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module drstrange\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the drstrange module root from the working directory")
}
