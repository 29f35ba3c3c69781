package analysis_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

func traceFor(t *testing.T, name string) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func lint(t *testing.T, name string, opts analysis.Options) *analysis.Report {
	t.Helper()
	rep, err := analysis.Run(traceFor(t, name), opts)
	if err != nil {
		t.Fatalf("lint %s: %v", name, err)
	}
	return rep
}

func countPass(rep *analysis.Report, pass string, min analysis.Severity) int {
	n := 0
	for i := range rep.Findings {
		if f := &rep.Findings[i]; f.Pass == pass && f.Severity >= min {
			n++
		}
	}
	return n
}

func hasMessage(rep *analysis.Report, pass, substr string) bool {
	for i := range rep.Findings {
		if f := &rep.Findings[i]; f.Pass == pass && strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

func TestSeededRaceIsDetected(t *testing.T) {
	rep := lint(t, "seededrace", analysis.Options{})
	if n := countPass(rep, "lockset", analysis.SevError); n < 1 {
		rep.Render(testWriter{t})
		t.Fatalf("seededrace: want >=1 lockset error, got %d", n)
	}
	if !hasMessage(rep, "lockset", "candidate lockset is empty") {
		t.Error("race finding lacks the lockset message")
	}
	// The locked counter updates must NOT be reported: exactly one racy
	// static site exists.
	if n := countPass(rep, "lockset", analysis.SevInfo); n != 1 {
		rep.Render(testWriter{t})
		t.Errorf("seededrace: want exactly 1 lockset finding, got %d", n)
	}
}

func TestLeakedLockIsDetected(t *testing.T) {
	rep := lint(t, "leakedlock", analysis.Options{})
	if n := countPass(rep, "locks", analysis.SevError); n < 1 {
		rep.Render(testWriter{t})
		t.Fatalf("leakedlock: want >=1 locks error, got %d", n)
	}
	if !hasMessage(rep, "locks", "never released") {
		t.Error("missing runtime leak finding")
	}
	if !hasMessage(rep, "locks", "release-free path") {
		t.Error("missing static leak-path finding")
	}
	if !hasMessage(rep, "divergence", "meldable divergent diamond") {
		rep.Render(testWriter{t})
		t.Error("parity branch should be flagged as a DARM meldable diamond")
	}
	// Nothing races: the only shared words are the per-thread lock words.
	if n := countPass(rep, "lockset", analysis.SevInfo); n != 0 {
		t.Errorf("leakedlock: want no lockset findings, got %d", n)
	}
}

func TestCleanWorkloadsHaveNoFindings(t *testing.T) {
	for _, name := range []string{"vectoradd", "uncoalesced"} {
		rep := lint(t, name, analysis.Options{})
		if len(rep.Findings) != 0 {
			rep.Render(testWriter{t})
			t.Errorf("%s: want zero findings, got %d", name, len(rep.Findings))
		}
		if len(rep.SkippedPasses) != 0 {
			t.Errorf("%s: unexpected skipped passes %v", name, rep.SkippedPasses)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := lint(t, "leakedlock", analysis.Options{})
	if len(rep.Findings) == 0 {
		t.Fatal("need findings to round-trip")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back analysis.Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("report changed across JSON round-trip:\n%s", b)
	}
}

func TestFindingsDeterministicAcrossParallelism(t *testing.T) {
	for _, name := range []string{"seededrace", "leakedlock"} {
		tr := traceFor(t, name)
		var base *analysis.Report
		for _, par := range []int{1, 2, 8, 0} {
			rep, err := analysis.Run(tr, analysis.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rep
				continue
			}
			if !reflect.DeepEqual(base, rep) {
				t.Errorf("%s: report differs between parallelism 1 and %d", name, par)
			}
		}
	}
}

// TestRunSessionKeepsSessionCache: a lint run with zero Options uses the
// report cache attached to the caller's session and leaves it attached, so
// a later analysis on that session hits the entry the lint stored.
func TestRunSessionKeepsSessionCache(t *testing.T) {
	tr := traceFor(t, "vectoradd")
	sess := core.NewSession()
	sess.SetCache(core.NewCache(t.TempDir()))
	if _, err := analysis.RunSession(sess, tr, analysis.Options{}); err != nil {
		t.Fatal(err)
	}
	_, hit, err := sess.AnalyzeCached(tr, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("analysis after a lint run missed the session's cache (hit=false)")
	}
}

func TestSeverityFilter(t *testing.T) {
	all := lint(t, "leakedlock", analysis.Options{})
	errsOnly := lint(t, "leakedlock", analysis.Options{MinSeverity: analysis.SevError})
	if len(errsOnly.Findings) >= len(all.Findings) {
		t.Fatalf("filter dropped nothing: %d vs %d", len(errsOnly.Findings), len(all.Findings))
	}
	for i := range errsOnly.Findings {
		if errsOnly.Findings[i].Severity < analysis.SevError {
			t.Errorf("finding below threshold survived: %+v", errsOnly.Findings[i])
		}
	}
	if errsOnly.Errors != all.Errors {
		t.Errorf("error count changed under filtering: %d vs %d", errsOnly.Errors, all.Errors)
	}
	if errsOnly.Warnings != 0 || errsOnly.Infos != 0 {
		t.Errorf("filtered report still counts %d warnings, %d infos", errsOnly.Warnings, errsOnly.Infos)
	}
}

func TestPassSelection(t *testing.T) {
	rep := lint(t, "seededrace", analysis.Options{Passes: []string{"lockset"}})
	for i := range rep.Findings {
		if rep.Findings[i].Pass != "lockset" {
			t.Errorf("unselected pass reported: %+v", rep.Findings[i])
		}
	}
	if rep.CountAtLeast(analysis.SevError) == 0 {
		t.Error("lockset-only run lost the race finding")
	}
	if _, err := analysis.Run(traceFor(t, "vectoradd"), analysis.Options{Passes: []string{"nosuch"}}); err == nil {
		t.Error("unknown pass id accepted")
	}
}

func TestBadWarpSizeRejected(t *testing.T) {
	if _, err := analysis.Run(traceFor(t, "vectoradd"), analysis.Options{WarpSize: 1 << 20}); err == nil {
		t.Error("absurd warp size accepted")
	}
}

func TestMalformedTraceGatesStructuralPasses(t *testing.T) {
	tr := traceFor(t, "seededrace")
	// Corrupt one record: a block id far outside the function.
	for _, th := range tr.Threads {
		for ri := range th.Records {
			if th.Records[ri].Kind == trace.KindBBL {
				th.Records[ri].Block = 9999
				break
			}
		}
		break
	}
	rep, err := analysis.Run(tr, analysis.Options{})
	if err != nil {
		t.Fatalf("malformed trace must yield findings, not an error: %v", err)
	}
	if rep.Errors == 0 {
		t.Fatal("sanitizer missed the corrupted record")
	}
	if !hasMessage(rep, "sanitize", "outside") {
		t.Error("missing out-of-range block finding")
	}
	if len(rep.SkippedPasses) == 0 {
		t.Error("structural passes ran over a broken trace")
	}
	for i := range rep.Findings {
		if p := rep.Findings[i].Pass; p != "sanitize" {
			t.Errorf("pass %s produced findings on a broken trace", p)
		}
	}
}

func TestFindingsAreSorted(t *testing.T) {
	rep := lint(t, "leakedlock", analysis.Options{})
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].Severity > rep.Findings[i-1].Severity {
			t.Fatalf("findings not sorted by severity at %d", i)
		}
	}
}

func TestRenderMentionsCounts(t *testing.T) {
	rep := lint(t, "leakedlock", analysis.Options{})
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "leakedlock") || !strings.Contains(out, "error(s)") {
		t.Errorf("render output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "ERROR") {
		t.Errorf("render lacks severity tags:\n%s", out)
	}
}

// testWriter adapts t.Logf for Report.Render in failure paths.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
