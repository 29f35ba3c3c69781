package vm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
)

// run executes a single-thread program built by mk and returns the thread
// plus its trace.
func run(t *testing.T, mk func(pb *ir.Builder, f *ir.FuncBuilder)) (*Thread, *trace.ThreadTrace, *Process) {
	t.Helper()
	pb := ir.NewBuilder("t")
	f := pb.NewFunc("worker")
	mk(pb, f)
	p := NewProcess(pb.MustBuild())
	th := p.NewThread(0)
	tt, err := th.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return th, tt, p
}

func TestIntegerALU(t *testing.T) {
	th, _, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(20)).
			Add(ir.Rg(ir.R(0)), ir.Imm(3)).  // 23
			Mul(ir.Rg(ir.R(0)), ir.Imm(-2)). // -46
			Sub(ir.Rg(ir.R(0)), ir.Imm(4)).  // -50
			Div(ir.Rg(ir.R(0)), ir.Imm(7)).  // -7
			Rem(ir.Rg(ir.R(0)), ir.Imm(4)).  // -3
			Neg(ir.Rg(ir.R(0))).             // 3
			Shl(ir.Rg(ir.R(0)), ir.Imm(4)).  // 48
			Or(ir.Rg(ir.R(0)), ir.Imm(7)).   // 55
			Xor(ir.Rg(ir.R(0)), ir.Imm(5)).  // 50
			And(ir.Rg(ir.R(0)), ir.Imm(56)). // 48
			Sar(ir.Rg(ir.R(0)), ir.Imm(2)).  // 12
			Not(ir.Rg(ir.R(0))).             // -13
			Ret()
	})
	if got := th.Reg(ir.R(0)); got != -13 {
		t.Errorf("ALU chain = %d, want -13", got)
	}
}

func TestDivisionByZeroYieldsZero(t *testing.T) {
	th, _, p := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(5)).
			Div(ir.Rg(ir.R(0)), ir.Imm(0)).
			Mov(ir.Rg(ir.R(1)), ir.Imm(5)).
			Rem(ir.Rg(ir.R(1)), ir.Imm(0)).
			Ret()
	})
	if th.Reg(ir.R(0)) != 0 || th.Reg(ir.R(1)) != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", th.Reg(ir.R(0)), th.Reg(ir.R(1)))
	}
	if p.DivByZero != 2 {
		t.Errorf("DivByZero = %d, want 2", p.DivByZero)
	}
}

func TestFloatingPoint(t *testing.T) {
	th, _, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		// r0 = sqrt((3.0*4.0 + 4.0) / 4.0) = 2.0; r1 = int64(r0) = 2
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(3)).
			CvtIF(ir.Rg(ir.R(0)), ir.Rg(ir.R(0))).
			Mov(ir.Rg(ir.R(2)), ir.Imm(4)).
			CvtIF(ir.Rg(ir.R(2)), ir.Rg(ir.R(2))).
			FMul(ir.Rg(ir.R(0)), ir.Rg(ir.R(2))).
			FAdd(ir.Rg(ir.R(0)), ir.Rg(ir.R(2))).
			FDiv(ir.Rg(ir.R(0)), ir.Rg(ir.R(2))).
			FSqrt(ir.Rg(ir.R(0))).
			CvtFI(ir.Rg(ir.R(1)), ir.Rg(ir.R(0))).
			Ret()
	})
	if got := math.Float64frombits(uint64(th.Reg(ir.R(0)))); got != 2.0 {
		t.Errorf("float chain = %v, want 2.0", got)
	}
	if th.Reg(ir.R(1)) != 2 {
		t.Errorf("cvtfi = %d, want 2", th.Reg(ir.R(1)))
	}
}

func TestConditionsAndBranches(t *testing.T) {
	// For each condition, branch with operands that satisfy it and verify
	// the taken side executes.
	cases := []struct {
		cond ir.Cond
		a, b int64
	}{
		{ir.CondEQ, 4, 4}, {ir.CondNE, 4, 5}, {ir.CondLT, -2, 3},
		{ir.CondLE, 3, 3}, {ir.CondGT, 9, 3}, {ir.CondGE, 3, 3},
		{ir.CondULT, 2, 3}, {ir.CondUGE, -1, 1}, // -1 is huge unsigned
	}
	for _, c := range cases {
		c := c
		th, _, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
			b0 := f.NewBlock("b0")
			yes := f.NewBlock("yes")
			no := f.NewBlock("no")
			b0.Mov(ir.Rg(ir.R(1)), ir.Imm(c.a)).
				Cmp(ir.Rg(ir.R(1)), ir.Imm(c.b)).
				Jcc(c.cond, yes, no)
			yes.Mov(ir.Rg(ir.R(0)), ir.Imm(1)).Ret()
			no.Mov(ir.Rg(ir.R(0)), ir.Imm(2)).Ret()
		})
		if th.Reg(ir.R(0)) != 1 {
			t.Errorf("cond %s with (%d,%d): fall-through taken", c.cond, c.a, c.b)
		}
	}
}

func TestMemorySignExtension(t *testing.T) {
	th, _, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		// Store 0xFF as one byte; load it back sign-extended: -1.
		b.Mov(ir.Mem(ir.SP, -8, 1), ir.Imm(0xFF)).
			Mov(ir.Rg(ir.R(0)), ir.Mem(ir.SP, -8, 1)).
			Mov(ir.Mem(ir.SP, -16, 4), ir.Imm(0x80000000)).
			Mov(ir.Rg(ir.R(1)), ir.Mem(ir.SP, -16, 4)).
			Ret()
	})
	if th.Reg(ir.R(0)) != -1 {
		t.Errorf("byte load = %d, want -1", th.Reg(ir.R(0)))
	}
	if th.Reg(ir.R(1)) != math.MinInt32 {
		t.Errorf("dword load = %d, want %d", th.Reg(ir.R(1)), math.MinInt32)
	}
}

func TestSwitchClamping(t *testing.T) {
	for _, tc := range []struct {
		sel  int64
		want int64
	}{{0, 10}, {1, 11}, {2, 12}, {5, 12}, {-3, 10}} {
		tc := tc
		th, _, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
			b0 := f.NewBlock("b0")
			t0 := f.NewBlock("t0")
			t1 := f.NewBlock("t1")
			t2 := f.NewBlock("t2")
			b0.Mov(ir.Rg(ir.R(1)), ir.Imm(tc.sel)).Switch(ir.Rg(ir.R(1)), t0, t1, t2)
			t0.Mov(ir.Rg(ir.R(0)), ir.Imm(10)).Ret()
			t1.Mov(ir.Rg(ir.R(0)), ir.Imm(11)).Ret()
			t2.Mov(ir.Rg(ir.R(0)), ir.Imm(12)).Ret()
		})
		if th.Reg(ir.R(0)) != tc.want {
			t.Errorf("switch(%d) = %d, want %d", tc.sel, th.Reg(ir.R(0)), tc.want)
		}
	}
}

func TestCallsAndIndirectCalls(t *testing.T) {
	th, tt, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		callee := pb.NewFunc("callee")
		cb := callee.NewBlock("cb")
		cb.Add(ir.Rg(ir.R(0)), ir.Imm(100)).Ret()

		pb.SetEntry(f)
		b0 := f.NewBlock("b0")
		b1 := f.NewBlock("b1")
		b2 := f.NewBlock("b2")
		b0.Mov(ir.Rg(ir.R(0)), ir.Imm(1)).Call(callee, b1)
		b1.Mov(ir.Rg(ir.R(1)), ir.Imm(int64(callee.ID()))).CallReg(ir.Rg(ir.R(1)), b2)
		b2.Ret()
	})
	if th.Reg(ir.R(0)) != 201 {
		t.Errorf("after two calls r0 = %d, want 201", th.Reg(ir.R(0)))
	}
	// Trace must contain matching CALL/RET markers: entry + 2 calls.
	calls, rets := 0, 0
	for _, r := range tt.Records {
		switch r.Kind {
		case trace.KindCall:
			calls++
		case trace.KindRet:
			rets++
		}
	}
	if calls != 3 || rets != 3 {
		t.Errorf("calls/rets = %d/%d, want 3/3", calls, rets)
	}
}

func TestIndirectCallOutOfRangeFails(t *testing.T) {
	pb := ir.NewBuilder("t")
	f := pb.NewFunc("worker")
	b0 := f.NewBlock("b0")
	b1 := f.NewBlock("b1")
	b0.Mov(ir.Rg(ir.R(0)), ir.Imm(99)).CallReg(ir.Rg(ir.R(0)), b1)
	b1.Ret()
	p := NewProcess(pb.MustBuild())
	if _, err := p.NewThread(0).Run(RunConfig{}); err == nil {
		t.Error("indirect call to function 99 succeeded")
	}
}

func TestInstructionBudget(t *testing.T) {
	pb := ir.NewBuilder("spin")
	f := pb.NewFunc("worker")
	b := f.NewBlock("b")
	b.Nop(10).Jmp(b) // infinite loop
	p := NewProcess(pb.MustBuild())
	if _, err := p.NewThread(0).Run(RunConfig{MaxInstrs: 1000}); err == nil {
		t.Error("infinite loop did not hit the budget")
	}
}

func TestLockEventsRecorded(t *testing.T) {
	_, tt, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(0x5000)).
			Lock(ir.Rg(ir.R(0))).
			Nop(2).
			Unlock(ir.Rg(ir.R(0))).
			Lock(ir.Mem(ir.R(0), 8, 8)). // address-of, not load
			Unlock(ir.Imm(0x5008)).
			Ret()
	})
	locks := tt.Locks
	if len(locks) != 4 {
		t.Fatalf("lock ops = %d, want 4", len(locks))
	}
	if locks[0].Addr != 0x5000 || locks[0].Release {
		t.Errorf("lock[0] = %+v", locks[0])
	}
	if locks[2].Addr != 0x5008 || locks[2].Release {
		t.Errorf("mem-operand lock addr = %#x, want 0x5008", locks[2].Addr)
	}
	if !locks[3].Release {
		t.Errorf("lock[3] should be a release")
	}
	// The memory-operand Lock must not record a memory access.
	if len(tt.Mem) != 0 {
		t.Errorf("lock instructions generated memory accesses: %+v", tt.Mem)
	}
}

func TestSkipRecords(t *testing.T) {
	_, tt, _ := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		b.IO(100).Nop(1).Spin(25).Ret()
	})
	io, spin := tt.Skipped()
	if io != 100 || spin != 25 {
		t.Errorf("skipped = %d io, %d spin; want 100/25", io, spin)
	}
	// Traced instructions include the IO/Spin markers themselves.
	if got := tt.Instructions(); got != 4 {
		t.Errorf("traced instructions = %d, want 4", got)
	}
}

func TestRMWMemoryAccessOrder(t *testing.T) {
	_, tt, p := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(int64(GlobalBase+0x800))).
			Mov(ir.Mem(ir.R(0), 0, 8), ir.Imm(5)).
			Add(ir.Mem(ir.R(0), 0, 8), ir.Imm(2)).
			Ret()
	})
	if got := p.ReadI64(GlobalBase + 0x800); got != 7 {
		t.Errorf("rmw result = %d, want 7", got)
	}
	// The Add must record a load then a store at the same instruction.
	accs := tt.Mem
	if len(accs) != 3 {
		t.Fatalf("accesses = %d, want 3 (store, load, store)", len(accs))
	}
	if accs[1].Store || !accs[2].Store || accs[1].Instr != accs[2].Instr {
		t.Errorf("rmw access pattern wrong: %+v", accs[1:])
	}
}

func TestStackIsolationBetweenThreads(t *testing.T) {
	pb := ir.NewBuilder("iso")
	f := pb.NewFunc("worker")
	b := f.NewBlock("b")
	b.Mov(ir.Mem(ir.SP, -8, 8), ir.Rg(ir.TID)).
		Mov(ir.Rg(ir.R(0)), ir.Mem(ir.SP, -8, 8)).
		Ret()
	p := NewProcess(pb.MustBuild())
	for tid := 0; tid < 4; tid++ {
		th := p.NewThread(tid)
		if _, err := th.Run(RunConfig{}); err != nil {
			t.Fatal(err)
		}
		if th.Reg(ir.R(0)) != int64(tid) {
			t.Errorf("thread %d read %d from its stack", tid, th.Reg(ir.R(0)))
		}
	}
}

func TestSegmentOf(t *testing.T) {
	cases := map[uint64]Segment{
		GlobalBase:        SegGlobal,
		GlobalBase + 4096: SegGlobal,
		HeapBase:          SegHeap,
		HeapBase + 1<<30:  SegHeap,
		StackBase:         SegStack,
		StackTop(0) - 8:   SegStack,
		0:                 SegGlobal,
	}
	for addr, want := range cases {
		if got := SegmentOf(addr); got != want {
			t.Errorf("SegmentOf(%#x) = %v, want %v", addr, got, want)
		}
	}
}

// TestMemoryReadWriteProperty: writes followed by reads round-trip for all
// sizes and straddle page boundaries correctly.
func TestMemoryReadWriteProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		type wr struct {
			addr uint64
			size uint8
			val  uint64
		}
		var writes []wr
		for i := 0; i < 50; i++ {
			size := []uint8{1, 2, 4, 8}[r.Intn(4)]
			// Cluster near page boundaries to exercise straddles.
			addr := uint64(r.Intn(3)+1)*pageSize - uint64(r.Intn(12))
			val := r.Uint64() & (1<<(8*uint(size)) - 1)
			m.Write(addr, size, val)
			writes = append(writes, wr{addr, size, val})
		}
		// The LAST write to each exact (addr,size) must be readable if no
		// later write overlaps it; simply re-write and check each.
		for _, w := range writes {
			m.Write(w.addr, w.size, w.val)
			if m.Read(w.addr, w.size) != w.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashBelowIgnoresZeroPagesAndStacks(t *testing.T) {
	m := NewMemory()
	h0 := m.HashBelow(StackBase)
	m.Write(GlobalBase+100, 8, 0) // touch a page with zeros only
	if m.HashBelow(StackBase) != h0 {
		t.Error("zero page changed the hash")
	}
	m.Write(StackBase+100, 8, 42) // stack write outside the range
	if m.HashBelow(StackBase) != h0 {
		t.Error("stack write changed the below-stack hash")
	}
	m.Write(GlobalBase+100, 8, 42)
	if m.HashBelow(StackBase) == h0 {
		t.Error("real write did not change the hash")
	}
}

func TestAllocators(t *testing.T) {
	pb := ir.NewBuilder("alloc")
	f := pb.NewFunc("worker")
	f.NewBlock("b").Ret()
	p := NewProcess(pb.MustBuild())

	g1 := p.AllocGlobal(100)
	g2 := p.AllocGlobal(1)
	if g2 <= g1 || g2-g1 < 100 || g1%16 != 0 {
		t.Errorf("global allocator misbehaved: %#x then %#x", g1, g2)
	}
	h1 := p.AllocHeap(64)
	h2 := p.AllocHeap(64)
	if SegmentOf(h1) != SegHeap || h2 != h1+64 {
		t.Errorf("heap allocator misbehaved: %#x then %#x", h1, h2)
	}
	// Arena bump pointers must be seeded into distinct spans.
	for i := uint64(0); i < NumArenas; i++ {
		next := p.Mem.Read(ArenaStateBase+i*ArenaStateStride, 8)
		if want := HeapBase + i*ArenaSpan; next != want {
			t.Errorf("arena %d bump = %#x, want %#x", i, next, want)
		}
	}
}

func TestTraceAllValidates(t *testing.T) {
	pb := ir.NewBuilder("multi")
	f := pb.NewFunc("worker")
	b0 := f.NewBlock("b0")
	odd := f.NewBlock("odd")
	even := f.NewBlock("even")
	b0.Mov(ir.Rg(ir.R(0)), ir.Rg(ir.TID)).
		And(ir.Rg(ir.R(0)), ir.Imm(1)).
		Cmp(ir.Rg(ir.R(0)), ir.Imm(0)).
		Jcc(ir.CondEQ, even, odd)
	odd.Nop(3).Ret()
	even.Nop(1).Ret()
	p := NewProcess(pb.MustBuild())
	tr, err := TraceAll(p, 8, RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Threads) != 8 {
		t.Errorf("threads = %d, want 8", len(tr.Threads))
	}
	// Threads 0,2,4,6 execute 3 instrs (b0:4? no: b0 has 4, even 2) —
	// verify per-parity instruction counts differ as expected.
	if tr.Threads[0].Instructions() == tr.Threads[1].Instructions() {
		t.Error("odd/even paths have identical lengths; test is vacuous")
	}
}

func TestCmovSemantics(t *testing.T) {
	th, _, p := run(t, func(pb *ir.Builder, f *ir.FuncBuilder) {
		b := f.NewBlock("b")
		addr := int64(GlobalBase + 0x900)
		b.Mov(ir.Rg(ir.R(0)), ir.Imm(addr)).
			Mov(ir.Mem(ir.R(0), 0, 8), ir.Imm(11)).
			Mov(ir.Rg(ir.R(1)), ir.Imm(1)).
			Cmp(ir.Rg(ir.R(1)), ir.Imm(1)).
			Cmov(ir.CondEQ, ir.Rg(ir.R(2)), ir.Imm(77)). // taken: eq holds
			Cmov(ir.CondNE, ir.Rg(ir.R(3)), ir.Imm(88)). // not taken
			Ret()
	})
	if th.Reg(ir.R(2)) != 77 {
		t.Errorf("taken cmov = %d, want 77", th.Reg(ir.R(2)))
	}
	if th.Reg(ir.R(3)) != 0 {
		t.Errorf("untaken cmov = %d, want 0", th.Reg(ir.R(3)))
	}
	_ = p
}
