package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// rtSample is the subset of runtime/metrics the benchmark brackets its
// timed window with.
type rtSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCycles   float64
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
	totalCPU   float64 // cumulative CPU seconds available to Go
	heapBytes  float64 // live + unswept heap objects right now
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3), heapBytes: val(4)}
}

// rssInterval is how often a window's RSS sampler reads and resets the
// resident-set high-water mark.
const rssInterval = time.Second

// rssSampler records the resident-set high-water mark (VmHWM in
// /proc/self/status) of each rssInterval of a window, resetting it
// through /proc/self/clear_refs after each read. Their median is the
// window's peak_rss_mb: a single process-wide maximum moves with the
// timing of every GC cycle, the median of per-interval maxima does not.
// Each workload runs in its own process, so no other workload's memory
// is in the figure.
type rssSampler struct {
	quit  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.err = resetHWM()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v, err := readHWM()
	if err == nil {
		s.peaks = append(s.peaks, v)
		err = resetHWM()
	}
	if err != nil && s.err == nil {
		s.err = err
	}
}

// stop ends sampling and returns the per-interval peaks in MiB. A window
// shorter than one interval yields its single peak so far.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	if len(s.peaks) == 0 {
		s.sample()
	}
	return s.peaks, s.err
}

func resetHWM() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// readHWM reads the process's resident-set high-water mark in MiB.
func readHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
