package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at reduced scale for two ops, untraced and
// traced, and checks that each run emits exactly the metrics BENCHMARK.json
// names, with their units, and that no op failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	for _, w := range benchWorkloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runOptions{
				seed: 1, traced: traced, small: true, minOps: 2, maxCycles: 1, workRoot: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%t: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
