package vm

import (
	"fmt"
	"math"

	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
)

func f2b(f float64) uint64 { return math.Float64bits(f) }
func b2f(b uint64) float64 { return math.Float64frombits(b) }

// flags is the condition state set by compares and consumed by OpJcc.
type flags struct {
	eq  bool // operands equal
	lt  bool // signed less (or float ordered-less)
	ult bool // unsigned less
}

func (f flags) holds(c ir.Cond) bool {
	switch c {
	case ir.CondEQ:
		return f.eq
	case ir.CondNE:
		return !f.eq
	case ir.CondLT:
		return f.lt
	case ir.CondLE:
		return f.lt || f.eq
	case ir.CondGT:
		return !f.lt && !f.eq
	case ir.CondGE:
		return !f.lt
	case ir.CondULT:
		return f.ult
	case ir.CondUGE:
		return !f.ult
	}
	return false
}

// frame is one entry of the thread's call stack.
type frame struct {
	fn   *ir.Function
	cont ir.BlockID // block to resume in the caller after return
}

// Thread interprets the program's entry function for one traced CPU thread.
// It can run to completion (Run, used by the tracer) or be single-stepped a
// basic block at a time (Step, used by the lockstep hardware oracle).
type Thread struct {
	proc *Process
	tid  int
	regs [ir.NumRegs]int64
	fl   flags

	// Execution position.
	fn      *ir.Function
	blockID ir.BlockID
	stack   []frame
	done    bool

	// Executed counts traced instructions, for budget enforcement.
	Executed uint64

	// mem and locks are the buffers Step collects a block's accesses and
	// lock operations in, reused from block to block.
	mem   []trace.MemAccess
	locks []trace.LockOp
}

// NewThread prepares a thread with SP at the top of its private stack, TID
// set to the thread id, and the program counter at the entry function.
func (p *Process) NewThread(tid int) *Thread {
	th := &Thread{proc: p, tid: tid, fn: p.Prog.Func(p.Prog.Entry)}
	th.regs[ir.SP] = int64(StackTop(tid))
	th.regs[ir.TID] = int64(tid)
	return th
}

// SetReg sets an initial register value (thread arguments).
func (th *Thread) SetReg(r ir.Reg, v int64) { th.regs[r] = v }

// SetRegF sets an initial register to a float64 value.
func (th *Thread) SetRegF(r ir.Reg, v float64) { th.regs[r] = int64(f2b(v)) }

// Reg returns a register's current value (useful in tests).
func (th *Thread) Reg(r ir.Reg) int64 { return th.regs[r] }

// TID returns the thread id.
func (th *Thread) TID() int { return th.tid }

// Done reports whether the entry function has returned.
func (th *Thread) Done() bool { return th.done }

// Depth returns the current call depth (1 inside the entry function).
func (th *Thread) Depth() int { return len(th.stack) + 1 }

// Current returns the function and block about to execute.
func (th *Thread) Current() (ir.FuncID, ir.BlockID) { return th.fn.ID, th.blockID }

// StepResult describes one executed basic block.
type StepResult struct {
	// Rec is the block's trace record (function, block, instruction count);
	// its access and lock ranges are zero.
	Rec trace.Record
	// Mem and Locks are the block's memory accesses and lock operations in
	// instruction order. They alias buffers of the Thread, valid until its
	// next Step.
	Mem   []trace.MemAccess
	Locks []trace.LockOp
	// Skips holds skip records for OpIO/OpSpin regions inside the block.
	Skips []trace.Record
	// Called is set when the block's terminator entered a function.
	Called   bool
	Callee   ir.FuncID
	Returned bool // the terminator was a return
	Done     bool // the entry function returned: the thread finished
}

// Step executes the current basic block (including its terminator) and
// advances the thread. It must not be called after the thread is done.
func (th *Thread) Step() (StepResult, error) {
	if th.done {
		return StepResult{}, fmt.Errorf("vm: step on finished thread %d", th.tid)
	}
	block := th.fn.Blocks[th.blockID]
	res := StepResult{Rec: trace.Record{
		Kind:  trace.KindBBL,
		Func:  uint32(th.fn.ID),
		Block: uint32(th.blockID),
		N:     uint64(len(block.Instrs)),
	}}
	th.mem, th.locks = th.mem[:0], th.locks[:0]
	th.Executed += uint64(len(block.Instrs))

	for i := range block.Instrs {
		in := &block.Instrs[i]
		if in.Op.IsTerminator() {
			break
		}
		if s, ok := th.step(in, uint16(i)); ok {
			res.Skips = append(res.Skips, s)
		}
	}

	term := block.Terminator()
	termIdx := uint16(len(block.Instrs) - 1)
	switch term.Op {
	case ir.OpJmp:
		th.blockID = term.Target
	case ir.OpJcc:
		if th.fl.holds(term.Cond) {
			th.blockID = term.Target
		} else {
			th.blockID = term.Fall
		}
	case ir.OpSwitch:
		idx := th.value(term.Src, termIdx)
		if idx < 0 {
			idx = 0
		}
		if idx >= int64(len(term.Targets)) {
			idx = int64(len(term.Targets) - 1)
		}
		th.blockID = term.Targets[idx]
	case ir.OpCall, ir.OpCallR:
		callee := term.Callee
		if term.Op == ir.OpCallR {
			v := th.value(term.Src, termIdx)
			if v < 0 || v >= int64(len(th.proc.Prog.Funcs)) {
				return res, fmt.Errorf("vm: indirect call to invalid function id %d in %s block %d", v, th.fn.Name, th.blockID)
			}
			callee = ir.FuncID(v)
		}
		th.stack = append(th.stack, frame{fn: th.fn, cont: term.Fall})
		if len(th.stack) > 512 {
			return res, fmt.Errorf("vm: call stack overflow in %s", th.fn.Name)
		}
		th.fn = th.proc.Prog.Func(callee)
		th.blockID = 0
		res.Called, res.Callee = true, callee
	case ir.OpRet:
		res.Returned = true
		if len(th.stack) == 0 {
			th.done, res.Done = true, true
		} else {
			top := th.stack[len(th.stack)-1]
			th.stack = th.stack[:len(th.stack)-1]
			th.fn, th.blockID = top.fn, top.cont
		}
	default:
		return res, fmt.Errorf("vm: block %s.%d has non-terminator end %s", th.fn.Name, th.blockID, term.Op)
	}
	res.Mem, res.Locks = th.mem, th.locks
	return res, nil
}

// Run executes the entry function to completion and returns the thread's
// trace, including the call/return marker records.
func (th *Thread) Run(cfg RunConfig) (*trace.ThreadTrace, error) {
	maxInstrs := cfg.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = defaultMaxInstrs
	}
	tt := &trace.ThreadTrace{TID: th.tid}
	tt.Append(trace.Record{Kind: trace.KindCall, Callee: uint32(th.fn.ID)}, nil, nil)
	for !th.done {
		if th.Executed > maxInstrs {
			return nil, fmt.Errorf("vm: instruction budget %d exceeded in %s block %d", maxInstrs, th.fn.Name, th.blockID)
		}
		res, err := th.Step()
		if err != nil {
			return nil, err
		}
		tt.Append(res.Rec, res.Mem, res.Locks)
		for _, s := range res.Skips {
			tt.Append(s, nil, nil)
		}
		if res.Called {
			tt.Append(trace.Record{Kind: trace.KindCall, Callee: uint32(res.Callee)}, nil, nil)
		}
		if res.Returned {
			tt.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		}
	}
	return tt, nil
}

// step executes one non-terminator instruction, appending memory accesses
// and lock operations to the thread's block buffers. It returns a skip record for OpIO/OpSpin.
func (th *Thread) step(in *ir.Instr, idx uint16) (trace.Record, bool) {
	switch in.Op {
	case ir.OpNop:
	case ir.OpMov:
		th.assign(in.Dst, th.value(in.Src, idx), idx)
	case ir.OpLea:
		th.regs[in.Dst.Reg] = int64(th.effAddr(in.Src.Mem))
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpSar:
		a := th.value(in.Dst, idx)
		b := th.value(in.Src, idx)
		th.assign(in.Dst, intALU(in.Op, a, b, th.proc), idx)
	case ir.OpNeg:
		th.assign(in.Dst, -th.value(in.Dst, idx), idx)
	case ir.OpNot:
		th.assign(in.Dst, ^th.value(in.Dst, idx), idx)
	case ir.OpCmp:
		a, b := th.value(in.Dst, idx), th.value(in.Src, idx)
		th.fl = flags{eq: a == b, lt: a < b, ult: uint64(a) < uint64(b)}
	case ir.OpCmov:
		v := th.value(in.Src, idx)
		if th.fl.holds(in.Cond) {
			th.assign(in.Dst, v, idx)
		} else if in.Dst.IsMem() {
			// x86 cmov with a memory destination still performs the
			// access; mirror that so traces stay address-faithful.
			th.assign(in.Dst, th.value(in.Dst, idx), idx)
		}
	case ir.OpTest:
		v := th.value(in.Dst, idx) & th.value(in.Src, idx)
		th.fl = flags{eq: v == 0, lt: v < 0}
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		a := b2f(uint64(th.value(in.Dst, idx)))
		b := b2f(uint64(th.value(in.Src, idx)))
		th.assign(in.Dst, int64(f2b(fpALU(in.Op, a, b))), idx)
	case ir.OpFSqrt:
		a := b2f(uint64(th.value(in.Dst, idx)))
		th.assign(in.Dst, int64(f2b(math.Sqrt(math.Abs(a)))), idx)
	case ir.OpFAbs:
		a := b2f(uint64(th.value(in.Dst, idx)))
		th.assign(in.Dst, int64(f2b(math.Abs(a))), idx)
	case ir.OpFCmp:
		a := b2f(uint64(th.value(in.Dst, idx)))
		b := b2f(uint64(th.value(in.Src, idx)))
		th.fl = flags{eq: a == b, lt: a < b, ult: a < b}
	case ir.OpCvtIF:
		th.assign(in.Dst, int64(f2b(float64(th.value(in.Src, idx)))), idx)
	case ir.OpCvtFI:
		f := b2f(uint64(th.value(in.Src, idx)))
		th.assign(in.Dst, int64(f), idx)
	case ir.OpLock, ir.OpUnlock:
		addr := th.lockAddr(in.Src)
		th.locks = append(th.locks, trace.LockOp{
			Instr: idx, Addr: addr, Release: in.Op == ir.OpUnlock,
		})
	case ir.OpIO:
		return trace.Record{Kind: trace.KindSkip, SkipKind: trace.SkipIO, N: uint64(in.Src.Imm)}, true
	case ir.OpSpin:
		return trace.Record{Kind: trace.KindSkip, SkipKind: trace.SkipSpin, N: uint64(in.Src.Imm)}, true
	default:
		panic(fmt.Sprintf("vm: unhandled opcode %s", in.Op))
	}
	return trace.Record{}, false
}

func intALU(op ir.Opcode, a, b int64, p *Process) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		if b == 0 {
			p.DivByZero++
			return 0
		}
		return a / b
	case ir.OpRem:
		if b == 0 {
			p.DivByZero++
			return 0
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (uint64(b) & 63)
	case ir.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case ir.OpSar:
		return a >> (uint64(b) & 63)
	}
	panic("vm: not an integer ALU op")
}

func fpALU(op ir.Opcode, a, b float64) float64 {
	switch op {
	case ir.OpFAdd:
		return a + b
	case ir.OpFSub:
		return a - b
	case ir.OpFMul:
		return a * b
	case ir.OpFDiv:
		if b == 0 {
			return 0
		}
		return a / b
	}
	panic("vm: not a floating ALU op")
}

// effAddr computes a memory operand's effective address.
func (th *Thread) effAddr(m ir.MemRef) uint64 {
	addr := uint64(th.regs[m.Base]) + uint64(m.Disp)
	if m.HasIndex {
		addr += uint64(th.regs[m.Index]) * uint64(m.Scale)
	}
	return addr
}

// lockAddr resolves the lock address of an OpLock/OpUnlock operand: memory
// operands contribute their effective address (not the loaded value).
func (th *Thread) lockAddr(o ir.Operand) uint64 {
	switch o.Kind {
	case ir.OpndReg:
		return uint64(th.regs[o.Reg])
	case ir.OpndImm:
		return uint64(o.Imm)
	case ir.OpndMem:
		return th.effAddr(o.Mem)
	}
	return 0
}

// value reads an operand, recording a load for memory operands.
func (th *Thread) value(o ir.Operand, idx uint16) int64 {
	switch o.Kind {
	case ir.OpndReg:
		return th.regs[o.Reg]
	case ir.OpndImm:
		return o.Imm
	case ir.OpndMem:
		addr := th.effAddr(o.Mem)
		th.mem = append(th.mem, trace.MemAccess{Instr: idx, Addr: addr, Size: o.Mem.Size})
		v := th.proc.Mem.Read(addr, o.Mem.Size)
		if o.Mem.Size == 8 {
			return int64(v)
		}
		return signExtend(v, o.Mem.Size)
	}
	panic("vm: read of empty operand")
}

// assign writes an operand, recording a store for memory operands.
func (th *Thread) assign(o ir.Operand, v int64, idx uint16) {
	switch o.Kind {
	case ir.OpndReg:
		th.regs[o.Reg] = v
	case ir.OpndMem:
		addr := th.effAddr(o.Mem)
		th.mem = append(th.mem, trace.MemAccess{Instr: idx, Addr: addr, Size: o.Mem.Size, Store: true})
		th.proc.Mem.Write(addr, o.Mem.Size, uint64(v))
	default:
		panic("vm: write to non-writable operand")
	}
}
