package hwsim

import (
	"math"
	"testing"

	"threadfuser/internal/core"
	"threadfuser/internal/ir"
	"threadfuser/internal/simt"
	"threadfuser/internal/vm"
)

// divergentProg builds a program with data-dependent branching, a loop with
// tid-dependent trip count, and a helper call, exercising every control
// construct the lockstep executor handles.
func divergentProg(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewBuilder("hwtest")

	helper := pb.NewFunc("helper")
	h0 := helper.NewBlock("h0")
	h1 := helper.NewBlock("h1")
	h2 := helper.NewBlock("h2")
	h3 := helper.NewBlock("h3")
	h0.Rem(ir.Rg(ir.R(2)), ir.Imm(3)).Cmp(ir.Rg(ir.R(2)), ir.Imm(0)).Jcc(ir.CondEQ, h1, h2)
	h1.Nop(2).Jmp(h3)
	h2.Nop(5).Jmp(h3)
	h3.Ret()

	w := pb.NewFunc("worker")
	w0 := w.NewBlock("init")
	loop := w.NewBlock("loop")
	call := w.NewBlock("call")
	tail := w.NewBlock("tail")
	done := w.NewBlock("done")
	w0.Mov(ir.Rg(ir.R(0)), ir.Rg(ir.TID)).
		Rem(ir.Rg(ir.R(0)), ir.Imm(5)).
		Add(ir.Rg(ir.R(0)), ir.Imm(1)).
		Mov(ir.Rg(ir.R(1)), ir.Imm(0)).
		Jmp(loop)
	loop.Mov(ir.Rg(ir.R(2)), ir.Rg(ir.R(1))).
		Add(ir.Rg(ir.R(2)), ir.Rg(ir.TID)).
		Call(helper, call)
	call.Add(ir.Rg(ir.R(1)), ir.Imm(1)).
		Cmp(ir.Rg(ir.R(1)), ir.Rg(ir.R(0))).
		Jcc(ir.CondLT, loop, tail)
	tail.Nop(2).Jmp(done)
	done.Ret()
	pb.SetEntry(w)
	return pb.MustBuild()
}

// TestOracleMatchesAnalyzer is the differential test at the heart of the
// figure-5 correlation story: for a lock-free program, the analyzer's
// trace-based prediction and the live lockstep oracle must measure identical
// efficiency and transaction counts when both model the same binary (the
// paper's O0/O1 "perfect 1.0 correlation" case).
func TestOracleMatchesAnalyzer(t *testing.T) {
	prog := divergentProg(t)
	const threads = 32
	for _, ws := range []int{4, 8, 16, 32} {
		// Oracle path: live lockstep execution.
		hw, err := Run(vm.NewProcess(prog), threads, Options{WarpSize: ws}, nil)
		if err != nil {
			t.Fatalf("warp %d: hwsim: %v", ws, err)
		}
		// Analyzer path: sequential tracing + SIMT-stack replay.
		tr, err := vm.TraceAll(vm.NewProcess(prog), threads, vm.RunConfig{}, nil)
		if err != nil {
			t.Fatalf("warp %d: tracing: %v", ws, err)
		}
		opts := core.Defaults()
		opts.WarpSize = ws
		rep, err := core.Analyze(tr, opts)
		if err != nil {
			t.Fatalf("warp %d: analyze: %v", ws, err)
		}

		if got, want := rep.Efficiency, hw.Efficiency(); math.Abs(got-want) > 1e-9 {
			t.Errorf("warp %d: analyzer efficiency %v != oracle %v", ws, got, want)
		}
		ht := hw.Total()
		if rep.HeapTx != ht.HeapTx || rep.StackTx != ht.StackTx {
			t.Errorf("warp %d: analyzer tx (heap %d, stack %d) != oracle (heap %d, stack %d)",
				ws, rep.HeapTx, rep.StackTx, ht.HeapTx, ht.StackTx)
		}
		if rep.LockstepInstrs != ht.Lockstep {
			t.Errorf("warp %d: analyzer lockstep %d != oracle %d", ws, rep.LockstepInstrs, ht.Lockstep)
		}
	}
}

func TestOracleConvergentEfficiencyIsOne(t *testing.T) {
	pb := ir.NewBuilder("conv")
	f := pb.NewFunc("worker")
	b0 := f.NewBlock("b0")
	b1 := f.NewBlock("b1")
	b0.Nop(5).Jmp(b1)
	b1.Nop(2).Ret()
	prog := pb.MustBuild()

	res, err := Run(vm.NewProcess(prog), 64, Options{WarpSize: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Efficiency(); math.Abs(got-1) > 1e-12 {
		t.Errorf("efficiency = %v, want 1", got)
	}
	if len(res.Warps) != 2 {
		t.Errorf("warps = %d, want 2", len(res.Warps))
	}
}

func TestOracleThreadResultsMatchSequential(t *testing.T) {
	// Lockstep scheduling must not change what each thread computes when
	// threads write disjoint memory: compare final memory contents of a
	// lockstep run against sequential tracing.
	pb := ir.NewBuilder("store")
	f := pb.NewFunc("worker")
	b := f.NewBlock("b")
	// out[tid] = tid*3 + 1
	b.Mov(ir.Rg(ir.R(1)), ir.Rg(ir.TID)).
		Mul(ir.Rg(ir.R(1)), ir.Imm(3)).
		Add(ir.Rg(ir.R(1)), ir.Imm(1)).
		Mov(ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8), ir.Rg(ir.R(1))).
		Ret()
	prog := pb.MustBuild()

	const n = 16
	setup := func(p *vm.Process) (base uint64) { return p.AllocGlobal(8 * n) }

	pSeq := vm.NewProcess(prog)
	baseSeq := setup(pSeq)
	if _, err := vm.TraceAll(pSeq, n, vm.RunConfig{}, func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(baseSeq))
	}); err != nil {
		t.Fatal(err)
	}

	pHW := vm.NewProcess(prog)
	baseHW := setup(pHW)
	if _, err := Run(pHW, n, Options{WarpSize: 8}, func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(baseHW))
	}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		seq := pSeq.ReadI64(baseSeq + uint64(8*i))
		hw := pHW.ReadI64(baseHW + uint64(8*i))
		if seq != hw || seq != int64(i*3+1) {
			t.Errorf("slot %d: sequential %d, lockstep %d, want %d", i, seq, hw, i*3+1)
		}
	}
}

// TestOracleListenerAndBudget exercises the remaining hwsim options: the
// listener must observe exactly the lockstep issue count, and a tiny
// instruction budget must abort rather than hang.
func TestOracleListenerAndBudget(t *testing.T) {
	prog := divergentProg(t)
	count := &hwCounter{}
	res, err := Run(vm.NewProcess(prog), 8, Options{WarpSize: 8, Listener: count}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count.instrs != res.Total().Lockstep {
		t.Errorf("listener saw %d lockstep instrs, metrics say %d", count.instrs, res.Total().Lockstep)
	}
	if _, err := Run(vm.NewProcess(prog), 8, Options{WarpSize: 8, MaxInstrs: 10}, nil); err == nil {
		t.Error("10-instruction budget did not abort")
	}
}

type hwCounter struct{ instrs uint64 }

func (c *hwCounter) OnBlock(be *simt.BlockExec) { c.instrs += be.N }
