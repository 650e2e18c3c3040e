package main

import (
	"testing"
)

func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestComputeSelf(t *testing.T) {
	spans := []span{
		sp(0, -1, "op", 0, 100),
		// Two overlapping children: [10,40) ∪ [30,60) covers 50.
		sp(1, 0, "quack.query", 10, 40),
		sp(2, 0, "quack.query", 30, 60),
		// A child nested in a child: counted against its parent only.
		sp(3, 1, "exec.scan", 15, 25),
		// A child reaching past its parent's end: only [90,100) counts.
		sp(4, 0, "bench.check", 90, 120),
		// A child entirely inside another child of the same parent adds
		// nothing to the parent's covered time.
		sp(5, 0, "quack.drain", 32, 35),
		// A separate root with no children: self = duration.
		sp(6, -1, "op", 200, 230),
	}
	computeSelf(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30, 3, 30}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("span %d (%s [%d,%d)): self = %d, want %d", i, spans[i].Name, spans[i].Start, spans[i].End, spans[i].Self, w)
		}
	}
	by := selfByName(spans)
	if by["op"] != 40+30 || by["quack.query"] != 50 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestComputeSelfDisjointAndTouching(t *testing.T) {
	spans := []span{
		sp(0, -1, "op", 0, 100),
		sp(1, 0, "a", 0, 20),
		sp(2, 0, "b", 20, 50), // touches a: no double count, no gap
		sp(3, 0, "c", 70, 80),
	}
	computeSelf(spans)
	if spans[0].Self != 100-50-10 {
		t.Fatalf("self = %d, want 40", spans[0].Self)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, -1, "op")
	tr.annotate(id, "rows", 1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

func TestOpSelfByKind(t *testing.T) {
	// SORT(wall 100) > PROJECT(folded, no time) > AGGREGATE(wall 80) >
	// SCAN(busy 60 summed over 2 threads, so 30 of wall time).
	plan := &profNode{Name: "SORT region ASC", WallNs: 100, Children: []*profNode{
		{Name: "PROJECT region", Children: []*profNode{
			{Name: "AGGREGATE region, count(*)", WallNs: 80, Children: []*profNode{
				{Name: "SCAN sales(region)", BusyNs: 60},
			}},
		}},
	}}
	got := map[string]int64{}
	opSelf(plan, 2, got)
	want := map[string]int64{"sort": 20, "agg": 50, "scan": 60}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if got["project"] != 0 {
		t.Errorf("folded PROJECT got self time %d", got["project"])
	}
	if k := opKind("INNER JOIN ON s.d = m.k"); k != "join" {
		t.Errorf("opKind(join) = %q", k)
	}
}
