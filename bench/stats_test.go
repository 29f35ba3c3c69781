package main

import (
	"math"
	"testing"
)

func TestMinOpsForLeavesTenSamplesInTheTail(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		n := minOpsFor(tc.p)
		if n != tc.want {
			t.Errorf("minOpsFor(%v) = %d, want %d", tc.p, n, tc.want)
		}
		// With n samples, the ones strictly above the p-quantile's rank.
		if beyond := n - int(math.Ceil(tc.p*float64(n))); beyond < tailSamples {
			t.Errorf("p=%v n=%d leaves %d samples beyond, want >= %d", tc.p, n, beyond, tailSamples)
		}
	}
}

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must give NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}
