package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Runtime memory counters read through runtime/metrics, which is cheap
// enough to sample without stopping the world.
const (
	mTotal    = "/memory/classes/total:bytes"
	mReleased = "/memory/classes/heap/released:bytes"
	mAllocs   = "/gc/heap/allocs:bytes"
)

func readMetrics(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// footprint is the Go runtime's memory mapped and not returned to the
// OS — the process's resident Go memory, near enough.
func footprint() uint64 {
	v := readMetrics(mTotal, mReleased)
	return v[0] - v[1]
}

// allocBytes is the cumulative count of heap bytes allocated.
func allocBytes() uint64 { return readMetrics(mAllocs)[0] }

// memSampler tracks the peak footprint while a run executes.
type memSampler struct {
	stop chan struct{}
	done chan uint64
}

// startMemSampler samples the footprint every millisecond until Stop.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := footprint()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				if f := footprint(); f > peak {
					peak = f
				}
				m.done <- peak
				return
			case <-t.C:
				if f := footprint(); f > peak {
					peak = f
				}
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak footprint in bytes.
func (m *memSampler) Stop() uint64 {
	close(m.stop)
	return <-m.done
}
