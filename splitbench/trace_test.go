package main

import "testing"

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // runs past the parent: clipped
		{Name: "a.x", Start: 12, End: 18, Parent: 1}, // grandchild
		{Name: "a.y", Start: 15, End: 25, Parent: 1}, // overlaps its sibling
	}
	want := []int64{
		100 - (40 + 10), // children cover [10,50] and [90,100]
		20 - 13,         // grandchildren cover [12,25]
		30, 30, 6, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	self, count := layerTotals(append(spans, span{Name: "a", Start: 200, End: 205, Parent: -1}))
	if self["a"] != float64(7+5)/1e9 || count["a"] != 2 {
		t.Errorf("layer a: self %v s over %d spans, want 12ns over 2", self["a"], count["a"])
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	if d := tr.end(id); id != -1 || d != 0 {
		t.Errorf("nil tracer recorded span %d of %v", id, d)
	}
	tr.count("x", 1)
	if len(tr.snapshot()) != 0 || len(tr.countsSnapshot()) != 0 {
		t.Error("nil tracer kept data")
	}
}

func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 3)
	child := tr.begin("child", root, 3)
	tr.end(child)
	tr.end(root)
	tr.count("n", 2)
	tr.count("n", 3)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Op != 3 || spans[1].End < spans[1].Start ||
		spans[0].End < spans[1].End {
		t.Errorf("spans = %+v", spans)
	}
	if c := tr.countsSnapshot()["n"]; c != 5 {
		t.Errorf("count n = %v, want 5", c)
	}
}
