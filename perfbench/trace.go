package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share op; parent is the index of the enclosing span in the
// same tracer, or -1 for an operation's root span.
type span struct {
	Op     int64            `json:"op"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	Class  string           `json:"class,omitempty"`
}

// tracer keeps one client's spans in memory until the run ends. A nil
// tracer is tracing off: every method is a no-op, so untraced runs pay
// one nil check per call site. A tracer is used by one goroutine.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// begin opens a span and returns its id.
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.base).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.base).Nanoseconds()
}

// annotate attaches a counter to span id.
func (t *tracer) annotate(id int, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] += v
}

// computeSelf fills every span's Self: its duration minus the part of
// its interval that its children cover. Children may nest or overlap
// one another (concurrent calls under one parent); overlapping parts are
// subtracted once, and any part of a child outside its parent is
// ignored.
func computeSelf(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered int64
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		p.Self = p.End - p.Start - covered
	}
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
