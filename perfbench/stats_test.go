package main

import (
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   time.Duration
		beyond int
		ok     bool
	}{
		{n: 20, p: 0.5, want: 10 * time.Millisecond, beyond: 10, ok: true},
		{n: 19, p: 0.5, want: 10 * time.Millisecond, beyond: 9, ok: false},
		{n: 100, p: 0.9, want: 90 * time.Millisecond, beyond: 10, ok: true},
		{n: 99, p: 0.9, want: 90 * time.Millisecond, beyond: 9, ok: false},
		{n: 1000, p: 0.99, want: 990 * time.Millisecond, beyond: 10, ok: true},
		{n: 999, p: 0.99, want: 990 * time.Millisecond, beyond: 9, ok: false},
		{n: 24, p: 0.99, want: 24 * time.Millisecond, beyond: 0, ok: false}, // p99 of 24 is the max
	}
	for _, c := range cases {
		v, beyond, ok := percentile(durations(c.n), c.p)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %v, %d beyond, ok=%v; want %v, %d, %v",
				c.n, c.p, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMustPercentileRefusesThinSample(t *testing.T) {
	if _, err := mustPercentile("latency", durations(500), 0.99); err == nil || !strings.Contains(err.Error(), "5 of 500") {
		t.Fatalf("p99 of 500 samples: err = %v, want a refusal naming 5 of 500", err)
	}
	v, err := mustPercentile("latency", durations(2000), 0.99)
	if err != nil || v != 1980 {
		t.Fatalf("p99 of 2000 samples = %v, %v; want 1980ms", v, err)
	}
}

func TestLittleCheck(t *testing.T) {
	// 2 clients, 400 ops in 1s: each op takes 5ms of which 4.5ms latency.
	l, err := littleCheck(2, 400, time.Second, 4500*time.Microsecond, 500*time.Microsecond)
	if err != nil || l < 1.999 || l > 2.001 {
		t.Fatalf("consistent figures: L = %v, err = %v", l, err)
	}
	// Within tolerance: 4% short (the last ops straddle the deadline).
	if _, err := littleCheck(2, 400, time.Second, 4300*time.Microsecond, 500*time.Microsecond); err != nil {
		t.Fatalf("4%% deviation refused: %v", err)
	}
	// The roadmap's serve baseline: p50 = 3.6ms at 16 sessions and 322
	// ops/s cannot be a mean latency: it implies 1.2 busy sessions.
	if _, err := littleCheck(16, 322, time.Second, 3600*time.Microsecond, 0); err == nil {
		t.Fatal("inconsistent figures accepted")
	}
	if _, err := littleCheck(2, 0, time.Second, 0, 0); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
