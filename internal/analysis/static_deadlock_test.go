package analysis_test

import (
	"strings"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
	"threadfuser/internal/workloads"
)

// deadlockTrace runs a 3-thread program where thread t holds lock[t] while
// acquiring lock[(t+1)%3]: a three-lock order cycle no pairwise inversion
// check can see.
func deadlockTrace(t *testing.T) *trace.Trace {
	t.Helper()
	pb := ir.NewBuilder("dining")
	f := pb.NewFunc("philosopher")
	pre := f.NewBlock("pre")
	cs := f.NewBlock("cs")
	// r0 = lock table; r1 = own lock address; r3 = next thread's.
	pre.Mov(ir.Rg(ir.R(1)), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8)).
		Mov(ir.Rg(ir.R(2)), ir.Rg(ir.TID)).
		Add(ir.Rg(ir.R(2)), ir.Imm(1)).
		Rem(ir.Rg(ir.R(2)), ir.Imm(3)).
		Mov(ir.Rg(ir.R(3)), ir.MemIdx(ir.R(0), ir.R(2), 8, 0, 8)).
		Jmp(cs)
	cs.Lock(ir.Rg(ir.R(1))).
		Lock(ir.Rg(ir.R(3))).
		Nop(2).
		Unlock(ir.Rg(ir.R(3))).
		Unlock(ir.Rg(ir.R(1))).
		Ret()
	prog := pb.MustBuild()

	p := vm.NewProcess(prog)
	table := p.AllocGlobal(8 * 3)
	words := p.AllocGlobal(8 * 3)
	for i := 0; i < 3; i++ {
		p.WriteI64(table+uint64(8*i), int64(words+uint64(8*i)))
	}
	tr, err := vm.TraceAll(p, 3, vm.RunConfig{}, func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(table))
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDeadlockCycleIsDetected(t *testing.T) {
	rep, err := analysis.Run(deadlockTrace(t), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countPass(rep, "deadlock", analysis.SevWarning); n != 1 {
		rep.Render(testWriter{t})
		t.Fatalf("want exactly 1 deadlock warning, got %d", n)
	}
	if !hasMessage(rep, "deadlock", "lock-order cycle over 3 lock(s)") {
		rep.Render(testWriter{t})
		t.Error("cycle finding does not name the 3-lock cycle")
	}
	// The pairwise inversion check in the locks pass must NOT fire: no two
	// locks are taken in both orders.
	if hasMessage(rep, "locks", "lock-order inversion") {
		t.Error("3-cycle misreported as a pairwise inversion")
	}
}

func TestDeadlockSilentOnCleanLocks(t *testing.T) {
	// leakedlock acquires locks but in a consistent order; no cycle.
	rep := lint(t, "leakedlock", analysis.Options{})
	if n := countPass(rep, "deadlock", analysis.SevInfo); n != 0 {
		rep.Render(testWriter{t})
		t.Errorf("deadlock pass fired on acyclic lock orders: %d finding(s)", n)
	}
}

// instanceFor builds a workload instance so tests can attach its program.
func instanceFor(t *testing.T, name string) (*workloads.Instance, *trace.Trace) {
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
	return inst, tr
}

func TestStaticPassSoundAndInformative(t *testing.T) {
	for _, name := range []string{"vectoradd", "seededrace"} {
		inst, tr := instanceFor(t, name)
		rep, err := analysis.Run(tr, analysis.Options{Prog: inst.Prog})
		if err != nil {
			t.Fatal(err)
		}
		// Soundness: the oracle must never have called a diverged branch
		// uniform on the built-in workloads.
		if n := countPass(rep, "static", analysis.SevError); n != 0 {
			rep.Render(testWriter{t})
			t.Fatalf("%s: static pass reported %d soundness error(s)", name, n)
		}
		if !hasMessage(rep, "static", "static oracle:") {
			rep.Render(testWriter{t})
			t.Errorf("%s: missing static summary finding", name)
		}
	}
}

func TestStaticPassSkippedWithoutProgram(t *testing.T) {
	_, tr := instanceFor(t, "vectoradd")
	// All-passes run: silently omitted.
	rep, err := analysis.Run(tr, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countPass(rep, "static", analysis.SevInfo) != 0 || len(rep.SkippedPasses) != 0 {
		t.Fatalf("static pass ran (or noisily skipped) without a program: %+v", rep.SkippedPasses)
	}
	// Explicitly requested: the skip is surfaced.
	rep, err = analysis.Run(tr, analysis.Options{Passes: []string{"static"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rep.SkippedPasses {
		if strings.Contains(s, "static") {
			found = true
		}
	}
	if !found {
		t.Fatalf("explicit static selection without a program not surfaced: %+v", rep.SkippedPasses)
	}
}
