package check

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/core"
	"threadfuser/internal/staticsimt"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

func workloadTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	tr, err := workloadInstance(t, name).Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWorkloadsSatisfyCatalog(t *testing.T) {
	for _, name := range []string{"vectoradd", "seededrace", "rodinia.bfs"} {
		rep, err := Run(name, workloadTrace(t, name), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK() {
			for _, v := range rep.Violations {
				t.Errorf("%s: %s", name, v)
			}
		}
		if rep.Checks == 0 {
			t.Errorf("%s: no assertions evaluated", name)
		}
		if len(rep.Props) != len(Properties()) {
			t.Errorf("%s: ran %d properties, catalog has %d", name, len(rep.Props), len(Properties()))
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	tr := workloadTrace(t, "vectoradd")
	cases := []Options{
		{WarpSizes: []int{0}},
		{WarpSizes: []int{65}},
		{Parallelism: []int{-1}},
		{Props: []string{"no-such-prop"}},
	}
	for i, opts := range cases {
		if _, err := Run("x", tr, opts); err == nil {
			t.Errorf("case %d: Run accepted invalid options %+v", i, opts)
		}
	}
}

func TestPropSelection(t *testing.T) {
	tr := workloadTrace(t, "vectoradd")
	rep, err := Run("x", tr, Options{Props: []string{"codec", "width1"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"codec", "width1"}; !reflect.DeepEqual(rep.Props, want) {
		t.Errorf("Props = %v, want %v", rep.Props, want)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated trace invalid: %v", seed, err)
		}
		// The records' ranges tile each thread's tables, as the decoder lays
		// them out, so DeepEqual against a decoded trace compares events.
		for _, th := range a.Threads {
			if err := th.CheckLayout(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Error("distinct seeds produced identical traces")
	}
}

func TestGeneratedTracesSatisfyCatalog(t *testing.T) {
	reports, failures, err := RunGenerated(Options{}, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 25 {
		t.Fatalf("got %d reports, want 25", len(reports))
	}
	for _, f := range failures {
		t.Errorf("seed %d: %d violations (first: %s)", f.Seed, len(f.Report.Violations), f.Report.Violations[0])
	}
}

// brokenAnalyze injects the mutation the acceptance criterion demands: the
// replay at warp width 4 with parallel workers over-counts one thread
// instruction, exactly the kind of bug a racy reduction would cause.
func brokenAnalyze(tr *trace.Trace, opts core.Options) (*core.Report, error) {
	r, err := core.Analyze(tr, opts)
	if err != nil || r == nil {
		return r, err
	}
	if opts.WarpSize == 4 && opts.Parallelism > 1 {
		rr := *r
		rr.TotalInstrs++
		return &rr, nil
	}
	return r, nil
}

func TestFaultInjectionIsCaught(t *testing.T) {
	tr := workloadTrace(t, "vectoradd")
	rep, err := Run("vectoradd", tr, Options{Analyze: brokenAnalyze})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("catalog did not catch a +1 TotalInstrs mutation in the parallel replay")
	}
	var det bool
	for _, v := range rep.Violations {
		if v.Prop == "determinism" && strings.Contains(v.Config, "warp=4") {
			det = true
		}
	}
	if !det {
		t.Errorf("no determinism violation at warp=4; got %v", rep.Violations)
	}
	// The healthy analyzer stays green on the same trace.
	ok, err := Run("vectoradd", tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.OK() {
		t.Errorf("control run failed: %v", ok.Violations)
	}
}

// TestBrokenReplayShrinksToReproducer is the end-to-end acceptance check:
// a deliberately broken replay must be caught on generated traces and the
// failure delivered as a shrunken reproducer that still fails.
func TestBrokenReplayShrinksToReproducer(t *testing.T) {
	opts := Options{Analyze: brokenAnalyze, Props: []string{"determinism"}}
	reports, failures, err := RunGenerated(opts, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != len(reports) {
		t.Fatalf("broken replay: %d/%d generated traces caught, want all", len(failures), len(reports))
	}
	for _, f := range failures {
		orig := Generate(f.Seed)
		origRecs := 0
		for _, th := range orig.Threads {
			origRecs += len(th.Records)
		}
		if f.ReproThreads > len(orig.Threads) || f.ReproRecords > origRecs {
			t.Errorf("seed %d: reproducer grew (%d threads/%d records from %d/%d)",
				f.Seed, f.ReproThreads, f.ReproRecords, len(orig.Threads), origRecs)
		}
		if f.ReproThreads != 1 {
			t.Errorf("seed %d: reproducer has %d threads, want shrink to 1", f.Seed, f.ReproThreads)
		}
		if err := f.Repro.Validate(); err != nil {
			t.Errorf("seed %d: reproducer invalid: %v", f.Seed, err)
		}
		rep, err := Run("repro", f.Repro, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Errorf("seed %d: shrunken reproducer no longer fails", f.Seed)
		}
	}
}

func TestShrinkReducesRecordCount(t *testing.T) {
	tr := Generate(11)
	total := func(t *trace.Trace) int {
		n := 0
		for _, th := range t.Threads {
			n += len(th.Records)
		}
		return n
	}
	// "Bug" triggered by any trace that still has a memory access.
	fails := func(c *trace.Trace) bool {
		for _, th := range c.Threads {
			if len(th.Mem) > 0 {
				return true
			}
		}
		return false
	}
	if !fails(tr) {
		t.Skip("seed 11 generated no memory accesses")
	}
	small := Shrink(tr, fails, 0)
	if !fails(small) {
		t.Fatal("shrunken trace no longer fails the predicate")
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("shrunken trace invalid: %v", err)
	}
	if total(small) > total(tr) {
		t.Errorf("shrink grew the trace: %d -> %d records", total(tr), total(small))
	}
	if len(small.Threads) != 1 {
		t.Errorf("shrink kept %d threads, want 1", len(small.Threads))
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		Input: "x", Props: []string{"codec"}, Checks: 3,
		Violations: []Violation{{Prop: "codec", Input: "x", Config: "warp=4 par=1 round-robin", Msg: "boom"}},
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"FAIL", "codec", "boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestSortViolations(t *testing.T) {
	vs := []Violation{
		{Prop: "codec", Config: "b", Msg: "z"},
		{Prop: "determinism", Config: "a", Msg: "y"},
		{Prop: "codec", Config: "a", Msg: "x"},
	}
	sortViolations(vs)
	want := []Violation{
		{Prop: "determinism", Config: "a", Msg: "y"},
		{Prop: "codec", Config: "a", Msg: "x"},
		{Prop: "codec", Config: "b", Msg: "z"},
	}
	if !reflect.DeepEqual(vs, want) {
		t.Errorf("sortViolations = %v, want %v", vs, want)
	}
}

// TestStaticUniformInvariantOnAllWorkloads enforces the static oracle's
// soundness contract across the entire built-in catalog: a branch classified
// warp-uniform by internal/staticsimt must never record a divergence at any
// matrix cell.
func TestStaticUniformInvariantOnAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.Instantiate(workloads.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(w.Name, tr, Options{Props: []string{"staticuniform"}, Prog: inst.Prog})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if rep.Checks == 0 {
				t.Error("staticuniform evaluated no assertions")
			}
		})
	}
}

func workloadInstance(t *testing.T, name string) *workloads.Instance {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestOraclesRejectMismatchedProgram runs every registered oracle through
// both of its consumers with a program that does not describe the trace:
// the lint pass must refuse the comparison with a warning, and the check
// property must report a violation.
func TestOraclesRejectMismatchedProgram(t *testing.T) {
	tr := workloadTrace(t, "vectoradd")
	other := workloadInstance(t, "seededrace")
	for _, o := range analysis.Oracles() {
		lint, err := analysis.Run(tr, analysis.Options{Prog: other.Prog, Passes: []string{o.Pass}})
		if err != nil {
			t.Fatal(err)
		}
		refused := false
		for _, f := range lint.Findings {
			refused = refused || (f.Pass == o.Pass && f.Severity == analysis.SevWarning &&
				strings.Contains(f.Message, "does not match the trace symbol table"))
		}
		if !refused {
			t.Errorf("%s: lint pass accepted a mismatched program: %+v", o.Pass, lint.Findings)
		}

		rejectsMismatchedProgram(t, tr, other, o.Prop)
	}
}

// rejectsMismatchedProgram asserts that prop reports a violation when given
// a program that does not describe tr.
func rejectsMismatchedProgram(t *testing.T, tr *trace.Trace, other *workloads.Instance, prop string) {
	t.Helper()
	rep, err := Run("x", tr, Options{Props: []string{prop}, Prog: other.Prog})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Errorf("%s: check property accepted a mismatched program", prop)
	}
}

func TestStaticUniformRejectsMismatchedProgram(t *testing.T) {
	rejectsMismatchedProgram(t, workloadTrace(t, "vectoradd"), workloadInstance(t, "seededrace"), "staticuniform")
}

// TestOracleFaultInjectionIsCaught proves the replay-reading oracle
// properties can fail: an analyzer that reports a divergence on a statically
// uniform branch, or a memory site needing more transactions than any static
// bound allows, must produce a violation of the matching property.
func TestOracleFaultInjectionIsCaught(t *testing.T) {
	inst := workloadInstance(t, "vectoradd")
	tr, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var uniform *core.BranchReport
	for _, fr := range staticsimt.Analyze(inst.Prog, staticsimt.Options{}).Funcs {
		for _, b := range fr.Branches {
			if b.Uniform && uniform == nil {
				uniform = &core.BranchReport{Func: fr.Name, Block: b.Block, Divergences: 1, LanesOff: 1}
			}
		}
	}
	if uniform == nil {
		t.Fatal("vectoradd has no statically uniform branch to fault")
	}
	cases := []struct {
		prop   string
		mutate func(*core.Report)
	}{
		{"staticuniform", func(r *core.Report) {
			r.Branches = append(slices.Clip(r.Branches), *uniform)
		}},
		{"staticcoalesce", func(r *core.Report) {
			r.MemSites = slices.Clone(r.MemSites)
			r.MemSites[0].MaxTx = 1 << 20
		}},
	}
	for _, tc := range cases {
		broken := func(tr *trace.Trace, opts core.Options) (*core.Report, error) {
			r, err := core.Analyze(tr, opts)
			if err != nil {
				return r, err
			}
			rr := *r
			tc.mutate(&rr)
			return &rr, nil
		}
		rep, err := Run("vectoradd", tr, Options{Analyze: broken, Props: []string{tc.prop}, Prog: inst.Prog})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Errorf("%s: injected fault not caught", tc.prop)
		}
		for _, v := range rep.Violations {
			if v.Prop != tc.prop || !strings.Contains(v.Msg, "oracle soundness bug") {
				t.Errorf("%s: unexpected violation %s", tc.prop, v)
			}
		}
		control, err := Run("vectoradd", tr, Options{Props: []string{tc.prop}, Prog: inst.Prog})
		if err != nil {
			t.Fatal(err)
		}
		if !control.OK() {
			t.Errorf("%s: control run failed: %v", tc.prop, control.Violations)
		}
	}
}
