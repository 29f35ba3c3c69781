package staticlock

import (
	"threadfuser/internal/ir"
)

// state is the phase-1 dataflow fact at one program point: the symbolic
// value of every register.
type state [ir.NumRegs]symval

// joinInto merges src into dst per-register and reports whether dst changed.
func joinInto(dst, src *state) bool {
	changed := false
	for r := range dst {
		merged := symJoin(dst[r], src[r])
		if !symEq(merged, dst[r]) {
			dst[r] = merged
			changed = true
		}
	}
	return changed
}

func topState() state {
	var s state
	for r := range s {
		s[r] = top
	}
	return s
}

// solveSymbolic runs phase 1, the interprocedural fixpoint over symbolic
// register values, from an entry whose registers are the arg, tid and sp
// roots. Functions with no call path from the entry are solved under an
// all-Top entry so their lock sites still get (worst-case) shapes.
func solveSymbolic(p *ir.Program) *ir.Solver[state] {
	s := &ir.Solver[state]{
		Join:  joinInto,
		Clone: func(st *state) state { return *st },
		Transfer: func(_ int, b *ir.Block, st *state) {
			for ii := 0; ii < len(b.Instrs)-1; ii++ {
				transferInstr(st, &b.Instrs[ii])
			}
		},
	}
	s.Call = awaitReturn(s, func(*state) state { return topState() })
	var seed state
	for r := range seed {
		seed[r] = symRoot(root{kind: rootArg, reg: uint8(r)})
	}
	seed[ir.TID] = symRoot(root{kind: rootTID})
	seed[ir.SP] = symRoot(root{kind: rootSP})
	s.Run(p, seed, topState)
	return s
}

// awaitReturn is the call policy of both phases. The caller's state enters
// the callees, and the continuation flows only once some callee's exit fact
// exists: the fixpoint revisits when it materializes, and a callee that
// never returns never reaches its continuation. A phantom's calls
// contribute nothing; its continuations take the phantom fact of the state
// at the call.
func awaitReturn[S any](s *ir.Solver[S], phantom func(st *S) S) func(fn int, b *ir.Block, st *S) (S, bool) {
	return func(fn int, b *ir.Block, st *S) (S, bool) {
		if s.Fns[fn].Phantom {
			return phantom(st), true
		}
		return s.Invoke(b.Terminator(), st)
	}
}

// read is the symbolic value of one source operand. Loads are Top: the
// static view cannot see memory contents.
func read(st *state, o ir.Operand) symval {
	switch o.Kind {
	case ir.OpndReg:
		return st[o.Reg]
	case ir.OpndImm:
		return symConst(o.Imm)
	case ir.OpndMem:
		return top
	}
	return top
}

// addrOf is the symbolic effective address of a memory operand:
// base + scale·index + disp.
func addrOf(st *state, m ir.MemRef) symval {
	v := st[m.Base]
	if m.HasIndex {
		v = symAdd(v, symScale(st[m.Index], int64(m.Scale)))
	}
	return symAdd(v, symConst(m.Disp))
}

// lockShape is the symbolic address a lock operand names: a register's
// value, an immediate, or a memory operand's effective address (address-only
// use, exactly as the VM evaluates it).
func lockShape(st *state, o ir.Operand) symval {
	switch o.Kind {
	case ir.OpndReg:
		return st[o.Reg]
	case ir.OpndImm:
		return symConst(o.Imm)
	case ir.OpndMem:
		return addrOf(st, o.Mem)
	}
	return top
}

// transferInstr interprets one non-terminator instruction over the symbolic
// register state. Memory is untracked: stores have no register effect and
// loads produce Top.
func transferInstr(st *state, in *ir.Instr) {
	def := func(v symval) {
		if in.Dst.Kind == ir.OpndReg {
			st[in.Dst.Reg] = v
		}
	}
	switch in.Op {
	case ir.OpNop, ir.OpLock, ir.OpUnlock, ir.OpIO, ir.OpSpin,
		ir.OpCmp, ir.OpTest, ir.OpFCmp:
		// No register effect (flags are not tracked symbolically).
	case ir.OpMov:
		def(read(st, in.Src))
	case ir.OpLea:
		def(addrOf(st, in.Src.Mem))
	case ir.OpAdd:
		def(symAdd(read(st, in.Dst), read(st, in.Src)))
	case ir.OpSub:
		def(symSub(read(st, in.Dst), read(st, in.Src)))
	case ir.OpMul:
		def(symMul(read(st, in.Dst), read(st, in.Src)))
	case ir.OpShl:
		def(symShl(read(st, in.Dst), read(st, in.Src)))
	case ir.OpNeg:
		def(symNeg(read(st, in.Dst)))
	case ir.OpXor:
		if in.Dst.Kind == ir.OpndReg && in.Src.Kind == ir.OpndReg && in.Dst.Reg == in.Src.Reg {
			def(symConst(0)) // the zeroing idiom stays precise
		} else {
			def(top)
		}
	case ir.OpCmov:
		// dst = cond ? src : dst — the join of both arms.
		def(symJoin(read(st, in.Dst), read(st, in.Src)))
	default:
		// Non-linear or untracked: div, rem, and, or, shr, sar, not,
		// float ops, conversions.
		def(top)
	}
}
