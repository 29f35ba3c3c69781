package check

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"threadfuser/internal/core"
	"threadfuser/internal/pool"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

// goldenEntry pins the analyzer's headline numbers for one Table-I workload
// at the snapshot configuration (seed 1, default threads, warp width 32,
// serial replay, locks off). Every field is compared exactly: floats survive
// a JSON round trip bit-for-bit, so any drift is a real behaviour change.
type goldenEntry struct {
	Threads            int     `json:"threads"`
	Warps              int     `json:"warps"`
	Efficiency         float64 `json:"efficiency"`
	WeightedEfficiency float64 `json:"weighted_efficiency"`
	TotalInstrs        uint64  `json:"total_instrs"`
	LockstepInstrs     uint64  `json:"lockstep_instrs"`
	MemInstrs          uint64  `json:"mem_instrs"`
	HeapTx             uint64  `json:"heap_tx"`
	StackTx            uint64  `json:"stack_tx"`
	LockSerializations uint64  `json:"lock_serializations"`
	SkippedIO          uint64  `json:"skipped_io"`
	SkippedSpin        uint64  `json:"skipped_spin"`
}

func snapshotEntry(r *core.Report) goldenEntry {
	return goldenEntry{
		Threads:            r.Threads,
		Warps:              r.Warps,
		Efficiency:         r.Efficiency,
		WeightedEfficiency: r.WeightedEfficiency,
		TotalInstrs:        r.TotalInstrs,
		LockstepInstrs:     r.LockstepInstrs,
		MemInstrs:          r.MemInstrs,
		HeapTx:             r.HeapTx,
		StackTx:            r.StackTx,
		LockSerializations: r.LockSerializations,
		SkippedIO:          r.SkippedIO,
		SkippedSpin:        r.SkippedSpin,
	}
}

// TestGoldenTableI compares every Table-I workload against the committed
// snapshot. Run with -update after an intentional behaviour change:
//
//	go test ./internal/check -run TestGoldenTableI -update
func TestGoldenTableI(t *testing.T) {
	path := filepath.Join("testdata", "golden_table1.json")
	got := make(map[string]goldenEntry)
	for _, w := range workloads.TableI() {
		inst, err := w.Instantiate(workloads.Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: instantiate: %v", w.Name, err)
		}
		tr, err := inst.Trace()
		if err != nil {
			t.Fatalf("%s: trace: %v", w.Name, err)
		}
		rep, err := core.Analyze(tr, core.Options{WarpSize: 32})
		if err != nil {
			t.Fatalf("%s: analyze: %v", w.Name, err)
		}
		got[w.Name] = snapshotEntry(rep)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d workloads)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot (run with -update to create it): %v", err)
	}
	want := make(map[string]goldenEntry)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in snapshot but not in workloads.TableI(); run -update if removed intentionally", name)
			continue
		}
		if g != w {
			t.Errorf("%s: drift from golden snapshot\n got: %+v\nwant: %+v\nrun with -update if this change is intentional", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: new Table-I workload missing from snapshot; run with -update", name)
		}
	}
}

// TestGoldenReportGrid pins every workload's full report, not only the
// headline fields TestGoldenTableI compares: one SHA-256 of the Report JSON
// (per-function rows, branches, memory sites, the lane histogram and the
// per-warp efficiencies included) per workload and configuration, over warp
// widths 8, 32 and 64, the three formations, and lock emulation off and on
// (seed 1, default threads). A change to code that every replay path
// shares moves the equivalence suites' two sides alike; this test sees it.
// Run with -update after an intentional behaviour change:
//
//	go test ./internal/check -run TestGoldenReportGrid -update
func TestGoldenReportGrid(t *testing.T) {
	ws := workloads.All()
	sums := make([]map[string]string, len(ws))
	if _, err := pool.ForEach(0, len(ws), func(_, i int) error {
		w := ws[i]
		inst, err := w.Instantiate(workloads.Config{Seed: 1})
		if err != nil {
			return fmt.Errorf("%s: instantiate: %w", w.Name, err)
		}
		tr, err := inst.Trace()
		if err != nil {
			return fmt.Errorf("%s: trace: %w", w.Name, err)
		}
		sess := core.NewSession()
		sums[i] = make(map[string]string)
		for _, width := range []int{8, 32, 64} {
			for _, f := range []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry} {
				for _, locks := range []bool{false, true} {
					key := fmt.Sprintf("%s/w%d/%s/locks=%t", w.Name, width, f, locks)
					rep, err := sess.Analyze(tr, core.Options{WarpSize: width, Formation: f, EmulateLocks: locks, Parallelism: 1})
					if err != nil {
						return fmt.Errorf("%s: analyze: %w", key, err)
					}
					data, err := json.Marshal(rep)
					if err != nil {
						return fmt.Errorf("%s: marshal: %w", key, err)
					}
					sum := sha256.Sum256(data)
					sums[i][key] = hex.EncodeToString(sum[:])
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, m := range sums {
		maps.Copy(got, m)
	}
	checkGoldenSums(t, filepath.Join("testdata", "golden_reports.json"), got, "report")
}

// checkGoldenSums compares got against the snapshot at path, or rewrites the
// snapshot under -update. what names the pinned value in failure messages.
func checkGoldenSums(t *testing.T, path string, got map[string]string, what string) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot (run with -update to create it): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in snapshot but no longer analyzed; run -update if removed intentionally", key)
			continue
		}
		if g != w {
			t.Errorf("%s: %s drifted from the golden snapshot; run with -update if this change is intentional", key, what)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: missing from snapshot; run with -update", key)
		}
	}
}
