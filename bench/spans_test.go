package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		// Two overlapping children: together they cover [10,50).
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},
		// A child with a nested grandchild: the grandchild counts against
		// its parent only.
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 90},
		{ID: 4, Parent: 3, Name: "d", Start: 65, End: 75},
		// A child that overruns its parent is clipped to the parent.
		{ID: 5, Parent: 4, Name: "e", Start: 70, End: 80},
	}
	want := []int64{100 - 40 - 30, 30, 20, 30 - 10, 10 - 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}}, 12},
		{[][2]int64{{0, 5}, {5, 7}}, 7},
	} {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp()
	a := tr.begin("trace.decode")
	tr.end(a)
	b := tr.begin("simt.replay")
	tr.end(b)
	tr.end(root)
	if tr.spans[a].Parent != root || tr.spans[b].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if tr.spans[a].Op != 1 || tr.spans[b].Op != 1 {
		t.Fatalf("op ids: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
