package threadfuser

import (
	"math"
	"testing"
)

func TestFacadeAnalyzeWorkload(t *testing.T) {
	w, err := Workload("paropoly.nbody")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeWorkload(w, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarpSize != 32 {
		t.Errorf("default warp size = %d, want 32", rep.WarpSize)
	}
	if rep.Efficiency < 0.9 {
		t.Errorf("nbody efficiency %.3f, want near 1", rep.Efficiency)
	}
}

func TestFacadeUnknownWorkload(t *testing.T) {
	if _, err := Workload("no-such-workload"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestFacadeCatalog(t *testing.T) {
	all := Workloads()
	if len(all) < 36 {
		t.Fatalf("catalog has %d workloads, want >= 36", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestFacadeTraceThenAnalyze(t *testing.T) {
	w, err := Workload("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 2, WarpSize: 16}
	tr, err := Trace(w, o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := AnalyzeWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Efficiency != combined.Efficiency || rep.HeapTx != combined.HeapTx {
		t.Error("two-step and one-step paths disagree")
	}
}

func TestFacadeProject(t *testing.T) {
	w, err := Workload("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Project(w, Options{Seed: 1, Threads: 128})
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUCycles == 0 || p.CPUCycles == 0 {
		t.Fatalf("degenerate projection %+v", p)
	}
	if math.Abs(p.Speedup-float64(p.CPUCycles)/float64(p.GPUCycles)) > 1e-9 {
		t.Error("speedup inconsistent with cycle counts")
	}
}

func TestFacadeBatchingOptions(t *testing.T) {
	w, err := Workload("rodinia.sc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := AnalyzeWorkload(w, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	strided, err := AnalyzeWorkload(w, Options{Seed: 3, Formation: Strided})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := AnalyzeWorkload(w, Options{Seed: 3, Formation: GreedyEntry})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{base, strided, greedy} {
		if rep.Efficiency <= 0 || rep.Efficiency > 1 {
			t.Errorf("efficiency %v out of range", rep.Efficiency)
		}
	}
}

func TestFacadeLint(t *testing.T) {
	clean, err := Workload("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LintWorkload(clean, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// vectoradd is clean: the only findings allowed are the static oracles'
	// informational summary/precision notes.
	for _, f := range rep.Findings {
		if (f.Pass != "static" && f.Pass != "staticlock" && f.Pass != "staticmem") || f.Severity > SevInfo {
			t.Errorf("vectoradd: unexpected finding [%s/%v] %s", f.Pass, f.Severity, f.Message)
		}
	}

	dirty, err := Workload("seededrace")
	if err != nil {
		t.Fatal(err)
	}
	rep, err = LintWorkload(dirty, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountAtLeast(SevError) == 0 {
		t.Error("seededrace: expected at least one error-severity finding")
	}
	raced := false
	for _, f := range rep.Findings {
		if f.Pass == "lockset" && f.Severity == SevError {
			raced = true
		}
	}
	if !raced {
		t.Error("seededrace: the planted data race was not reported")
	}
}

func TestFacadeStaticLock(t *testing.T) {
	w, err := Workload("seededcycle")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := StaticLockWorkload(w, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CycleCandidates != 1 {
		t.Errorf("seededcycle: %d static cycle candidate(s), want 1", rep.CycleCandidates)
	}

	spin, err := Workload("seededspin")
	if err != nil {
		t.Fatal(err)
	}
	rep, err = StaticLockWorkload(spin, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergentAcquires != 1 {
		t.Errorf("seededspin: %d divergent acquire(s), want 1", rep.DivergentAcquires)
	}
	if rep.RaceCandidates != 0 {
		t.Errorf("seededspin: %d race candidate(s), want 0 (the counter is lock-protected)", rep.RaceCandidates)
	}
}

func TestFacadeCheck(t *testing.T) {
	w, err := Workload("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckWorkload(w, Options{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Errorf("vectoradd: %s", v)
		}
	}
	if rep.Checks == 0 {
		t.Error("verification ran zero assertions")
	}

	// Narrowing the matrix to one warp width still verifies it.
	narrow, err := CheckWorkload(w, Options{Threads: 8, Seed: 1, WarpSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.OK() {
		t.Errorf("warp-16 matrix: %v", narrow.Violations)
	}
}

func TestFacadeCache(t *testing.T) {
	w, err := Workload("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	cache := OpenCache(t.TempDir())
	o := Options{Threads: 8, Seed: 1, WarpSize: 8}.WithCache(cache)
	tr, err := Trace(w, o)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Analyze(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Efficiency != second.Efficiency || first.TotalInstrs != second.TotalInstrs {
		t.Errorf("cached analysis differs: %+v vs %+v", first, second)
	}
	// Uncached analysis agrees with both.
	plain, err := Analyze(tr, Options{Threads: 8, Seed: 1, WarpSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Efficiency != second.Efficiency {
		t.Errorf("cache changed the result: %v vs %v", plain.Efficiency, second.Efficiency)
	}
	// The cache also threads through the lint and check paths.
	if _, err := Lint(tr, o); err != nil {
		t.Fatal(err)
	}
	if rep, err := Check("vectoradd", tr, o); err != nil || !rep.OK() {
		t.Fatalf("cached check: err=%v rep=%+v", err, rep)
	}
}
