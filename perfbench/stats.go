package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank strictly above a percentile
// before the benchmark reports it: with fewer, a "p99" is just one of
// the largest few samples and moves with any single outlier.
const minBeyond = 10

// littleTolerance bounds how far throughput × mean cycle time may stray
// from the closed-loop client count before a run is refused.
const littleTolerance = 0.05

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples
// and how many samples rank strictly above it. ok is false when fewer
// than minBeyond samples lie beyond it; the value must then not be
// reported.
func percentile(samples []time.Duration, p float64) (v time.Duration, beyond int, ok bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based nearest rank; epsilon absorbs p*n rounding up
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// mustPercentile is percentile for metrics the workload is sized to
// support: a run whose sample cannot carry the percentile fails.
func mustPercentile(what string, samples []time.Duration, p float64) (float64, error) {
	v, beyond, ok := percentile(samples, p)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, run has %d of %d; lengthen the run",
			what, p*100, minBeyond, beyond, len(samples))
	}
	return ms(v), nil
}

// median of float samples (mean of the middle two for even counts); it
// is used for the few set-up repetitions, not for latency streams.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// littleCheck verifies Little's law for a closed loop without think
// time: every client is always either inside an operation or in the
// benchmark's own gap between operations (result checking), so
// throughput × (mean latency + mean gap) must equal the client count.
// A violation means the latency or throughput figure is wrong.
func littleCheck(clients int, completed int, wall, meanLatency, meanGap time.Duration) (float64, error) {
	if completed == 0 || wall <= 0 {
		return 0, fmt.Errorf("little's law: no completed operations")
	}
	x := float64(completed) / wall.Seconds()
	l := x * (meanLatency + meanGap).Seconds()
	if dev := math.Abs(l/float64(clients) - 1); dev > littleTolerance {
		return l, fmt.Errorf("little's law: %.1f ops/s × (%.3fms latency + %.3fms gap) = %.3f clients, want %d ±%.0f%%",
			x, ms(meanLatency), ms(meanGap), l, clients, littleTolerance*100)
	}
	return l, nil
}
