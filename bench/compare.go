package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minPairs is the fewest run pairs that can show an improvement.
const minPairs = 10

// verdict compares a metric's runs on the parent side (a) with the change
// (b), pairing runs by index:
//
//   - improved: at least minPairs pairs, b better in at least 9 of 10 of
//     them (ties count for neither), and the medians differ in b's favour by
//     more than a's interquartile distance;
//   - unresolved: the run-to-run spread of either side exceeds the bound,
//     unless every run of b is better than every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - unchanged: otherwise.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	medA, medB := median(a), median(b)
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	if n >= minPairs && wins*10 >= 9*n && better(medB, medA) && math.Abs(medB-medA) > q3-q1 {
		return "improved"
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if (relSpread(a) > bound || relSpread(b) > bound) && !allBetter {
		return "unresolved"
	}
	rel := (medB - medA) / math.Abs(medA)
	if lowerIsBetter && rel > bound || !lowerIsBetter && -rel > bound {
		return "worse"
	}
	return "unchanged"
}

func readSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &s, nil
}

// compareFiles compares set b against set a under the bounds in spec and
// returns one row per workload.
func compareFiles(a, b, spec string) (string, error) {
	sa, err := readSet(a)
	if err != nil {
		return "", err
	}
	sb, err := readSet(b)
	if err != nil {
		return "", err
	}
	raw, err := os.ReadFile(spec)
	if err != nil {
		return "", err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return "", fmt.Errorf("reading %s: %w", spec, err)
	}
	return compareSets(sa, sb, &bs), nil
}

func compareSets(a, b *runSet, bs *benchSpec) string {
	byWorkload := func(s *runSet) map[string][]*runResult {
		m := map[string][]*runResult{}
		for _, r := range s.Runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ra, rb := byWorkload(a), byWorkload(b)
	var order []string
	for _, r := range a.Runs {
		if !slices.Contains(order, r.Workload) {
			order = append(order, r.Workload)
		}
	}
	var sb strings.Builder
	for _, wl := range order {
		fmt.Fprintf(&sb, "%s (%d vs %d runs):", wl, len(ra[wl]), len(rb[wl]))
		for _, m := range bs.EndToEnd {
			va, vb := values(ra[wl], m.Name), values(rb[wl], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(&sb, " %s=missing", m.Name)
				continue
			}
			v := verdict(va, vb, m.Better == "lower", m.Bound)
			fmt.Fprintf(&sb, " %s=%s(%+.1f%%)", m.Name, v, 100*(median(vb)-median(va))/math.Abs(median(va)))
		}
		fa, fb := failures(ra[wl]), failures(rb[wl])
		state := "unchanged"
		if fb > fa {
			state = "worse"
		}
		fmt.Fprintf(&sb, " failed=%s(%d->%d)\n", state, fa, fb)
	}
	return sb.String()
}

func values(runs []*runResult, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failures(runs []*runResult) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}
