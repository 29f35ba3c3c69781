package analysis_test

import (
	"bytes"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/workloads"
)

// soundOnAllWorkloads is the golden static-vs-dynamic agreement check: on
// every built-in workload each named oracle pass must report zero soundness
// errors and its summary line, and the findings must be byte-deterministic
// across runs.
func soundOnAllWorkloads(t *testing.T, passes ...string) {
	t.Helper()
	for _, w := range workloads.All() {
		inst, tr := instanceFor(t, w.Name)
		var prev []byte
		for round := 0; round < 2; round++ {
			rep, err := analysis.Run(tr, analysis.Options{Prog: inst.Prog, Passes: passes})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, p := range passes {
				if n := countPass(rep, p, analysis.SevError); n != 0 {
					rep.Render(testWriter{t})
					t.Fatalf("%s: %s reported %d soundness error(s)", w.Name, p, n)
				}
				if !hasMessage(rep, p, "oracle:") {
					t.Fatalf("%s: missing %s summary finding", w.Name, p)
				}
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if round > 0 && !bytes.Equal(prev, buf.Bytes()) {
				t.Fatalf("%s: oracle findings not byte-deterministic", w.Name)
			}
			prev = buf.Bytes()
		}
	}
}

// TestOraclesSoundOnAllWorkloads runs every registered oracle together.
func TestOraclesSoundOnAllWorkloads(t *testing.T) {
	var passes []string
	for _, o := range analysis.Oracles() {
		passes = append(passes, o.Pass)
	}
	soundOnAllWorkloads(t, passes...)
}

// The static concurrency and memory oracles must also hold when selected
// alone, without the other oracle passes in the session.
func TestStaticLockSoundOnAllWorkloads(t *testing.T) { soundOnAllWorkloads(t, "staticlock") }
func TestStaticMemSoundOnAllWorkloads(t *testing.T)  { soundOnAllWorkloads(t, "staticmem") }

// rejectsMismatchedProgram asserts that a program which does not describe
// the traced binary is refused by the oracle pass with a warning, not
// compared.
func rejectsMismatchedProgram(t *testing.T, pass string) {
	t.Helper()
	_, tr := instanceFor(t, "vectoradd")
	other, _ := instanceFor(t, "seededrace")
	rep, err := analysis.Run(tr, analysis.Options{Prog: other.Prog, Passes: []string{pass}})
	if err != nil {
		t.Fatal(err)
	}
	if countPass(rep, pass, analysis.SevError) != 0 || !hasMessage(rep, pass, "does not match the trace symbol table") {
		rep.Render(testWriter{t})
		t.Fatalf("mismatched program accepted for %s comparison", pass)
	}
}

func TestStaticPassRejectsMismatchedProgram(t *testing.T) { rejectsMismatchedProgram(t, "static") }
func TestStaticLockPassRejectsMismatchedProgram(t *testing.T) {
	rejectsMismatchedProgram(t, "staticlock")
}
func TestStaticMemPassRejectsMismatchedProgram(t *testing.T) {
	rejectsMismatchedProgram(t, "staticmem")
}
