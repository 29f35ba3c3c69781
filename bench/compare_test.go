package main

import (
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same runs", steady, steady, true, 0.1, "unchanged"},
		{"lower is better and b is lower", steady, faster, true, 0.1, "improved"},
		{"higher is better and b is lower", steady, faster, false, 0.1, "worse"},
		{"within the bound", steady, scale(steady, 1.05), true, 0.1, "unchanged"},
		{"too few pairs to claim a gain", steady[:5], faster[:5], true, 0.1, "unchanged"},
		{
			"spread wider than the bound",
			[]float64{100, 140, 70, 120, 90, 60, 130, 100, 80, 110},
			[]float64{105, 145, 75, 125, 95, 65, 135, 105, 85, 115},
			true, 0.1, "unresolved",
		},
		{
			// Too few pairs to be improved, but the clean separation
			// overrides the spread rule.
			"wide spread, but every change run beats every parent run",
			[]float64{100, 140, 120, 130, 110},
			[]float64{60, 90, 80, 70, 95},
			true, 0.1, "unchanged",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := verdict(tc.a, tc.b, tc.lower, tc.bound); got != tc.want {
				t.Errorf("verdict = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestCompareSetsOneRowPerWorkload(t *testing.T) {
	mk := func(wl string, v float64, failed int) *runResult {
		return &runResult{Workload: wl, Failed: failed, Metrics: map[string]metric{"latency_ms_p50": {v, "ms"}}}
	}
	a := &runSet{Runs: []*runResult{mk("x", 10, 0), mk("y", 20, 0), mk("x", 10, 0), mk("y", 20, 0)}}
	b := &runSet{Runs: []*runResult{mk("x", 10, 0), mk("y", 30, 1), mk("x", 10, 0), mk("y", 30, 0)}}
	bs := benchSpec{EndToEnd: []metricSpec{{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}}}
	rows := strings.Split(strings.TrimSpace(compareSets(a, b, &bs)), "\n")
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %q", rows)
	}
	if !strings.HasPrefix(rows[0], "x ") || !strings.Contains(rows[0], "latency_ms_p50=unchanged") {
		t.Errorf("row x: %s", rows[0])
	}
	if !strings.Contains(rows[1], "latency_ms_p50=worse") || !strings.Contains(rows[1], "failed=worse(0->1)") {
		t.Errorf("row y: %s", rows[1])
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
