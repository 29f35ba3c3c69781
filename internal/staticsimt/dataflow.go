package staticsimt

import (
	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/ir"
)

// slotKey identifies one tracked SP-relative stack slot by its exact
// displacement and access width; overlapping accesses at other keys
// invalidate it rather than alias into it.
type slotKey struct {
	disp int64
	size uint8
}

// state is the dataflow fact at one program point: the uniformity of every
// register, of the flags, and the set of SP-relative slots currently known
// to hold warp-uniform values (absent = divergent).
type state struct {
	regs  [ir.NumRegs]Uniformity
	flags Uniformity
	slots map[slotKey]bool
}

func (s *state) clone() state {
	out := *s
	if s.slots != nil {
		out.slots = make(map[slotKey]bool, len(s.slots))
		for k := range s.slots {
			out.slots[k] = true
		}
	}
	return out
}

// joinInto merges src into dst (register/flag OR, slot intersection) and
// reports whether dst changed.
func joinInto(dst *state, src *state) bool {
	changed := false
	for r := range dst.regs {
		if merged := dst.regs[r] | src.regs[r]; merged != dst.regs[r] {
			dst.regs[r] = merged
			changed = true
		}
	}
	if merged := dst.flags | src.flags; merged != dst.flags {
		dst.flags = merged
		changed = true
	}
	for k := range dst.slots {
		if !src.slots[k] {
			delete(dst.slots, k)
			changed = true
		}
	}
	return changed
}

// worstState is the all-divergent fact used for phantom (unreachable)
// functions and unknown continuations.
func worstState() state {
	var s state
	for r := range s.regs {
		s.regs[r] = FromArgs | FromMemory | FromCall
	}
	s.regs[ir.TID] = FromTID
	s.regs[ir.SP] = FromSP
	s.flags = FromArgs | FromMemory | FromCall
	s.slots = map[slotKey]bool{}
	return s
}

// funcInfo is the per-function state the uniformity oracle keeps beside
// the solver's facts.
type funcInfo struct {
	f *ir.Function
	// writesSP disables slot tracking: a rebased stack pointer makes
	// displacement-keyed slots ambiguous across joins.
	writesSP bool
	// influenced marks blocks inside some divergent branch's influence
	// region; every definition there picks up the FromControl taint.
	influenced []bool
	// branch is the divergence of each jcc/switch/callr terminator's
	// condition/selector, keyed by block.
	branch     map[uint32]Uniformity
	branchKind map[uint32]string
}

type analysis struct {
	ir.Solver[state]
	prog   *ir.Program
	opts   Options
	graphs map[uint32]*cfg.DCFG
	pdoms  map[uint32]*ipdom.PostDom
	fns    []*funcInfo
	// stackEscapes: some stack address was stored to memory, so loads
	// through non-SP pointers may observe (and stores may clobber) any
	// frame slot — slot tracking shuts off program-wide.
	stackEscapes bool
	// meldsRejectedMem counts meld candidates vetoed by Options.MeldMem
	// during result construction.
	meldsRejectedMem int
}

func newAnalysis(p *ir.Program, opts Options) *analysis {
	graphs := cfg.FromProgram(p)
	a := &analysis{
		prog:   p,
		opts:   opts,
		graphs: graphs,
		pdoms:  ipdom.ComputeAll(graphs),
		fns:    make([]*funcInfo, len(p.Funcs)),
	}
	a.Solver = ir.Solver[state]{
		Join:     joinInto,
		Clone:    (*state).clone,
		Transfer: a.transferBlock,
		Call:     a.call,
		Sweep:    a.refreshInfluence,
	}
	for i, f := range p.Funcs {
		fs := &funcInfo{
			f:          f,
			influenced: make([]bool, len(f.Blocks)),
			branch:     make(map[uint32]Uniformity),
			branchKind: make(map[uint32]string),
		}
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if !in.Op.IsTerminator() && in.Dst.Kind == ir.OpndReg && in.Dst.Reg == ir.SP {
					fs.writesSP = true
				}
			}
		}
		a.fns[i] = fs
	}
	return a
}

// entrySeed is the program entry's fact: the registers other than TID and
// SP hold entry arguments the oracle cannot see.
func entrySeed() state {
	var seed state
	for r := range seed.regs {
		seed.regs[r] = FromArgs
	}
	seed.regs[ir.TID] = FromTID
	seed.regs[ir.SP] = FromSP
	seed.slots = map[slotKey]bool{}
	return seed
}

// refreshInfluence recomputes the influenced-block set from the currently
// divergent jcc/switch branches. Influence only grows (branch classes are
// monotone), so this is part of the fixpoint; the solver runs it before each
// sweep over the function.
func (a *analysis) refreshInfluence(fn int) {
	fs := a.fns[fn]
	fid := uint32(fs.f.ID)
	g := a.graphs[fid]
	pd := a.pdoms[fid]
	for bid, u := range fs.branch {
		if !u.Divergent() {
			continue
		}
		term := fs.f.Blocks[bid].Terminator()
		if term.Op == ir.OpCallR {
			// A divergent indirect call has one in-function successor; the
			// cross-callee divergence is handled by the continuation taint.
			continue
		}
		for _, blk := range a.regionBlocks(g, pd, int32(bid)) {
			if !fs.influenced[blk] {
				fs.influenced[blk] = true
				a.Changed = true
			}
		}
	}
}

// regionBlocks returns the influence region of a divergent branch: every
// block reachable from its successors without passing its static immediate
// post-dominator (the reconvergence point). The branch block itself joins
// the region when a back edge re-enters it (divergent loop trip counts).
func (a *analysis) regionBlocks(g *cfg.DCFG, pd *ipdom.PostDom, branch int32) []uint32 {
	rpc := pd.IPDom(branch)
	exit := g.ExitNode()
	seen := map[int32]bool{}
	var out []uint32
	work := append([]int32(nil), g.Succs(branch)...)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[v] || v == rpc || v == exit {
			continue
		}
		seen[v] = true
		out = append(out, uint32(v))
		work = append(work, g.Succs(v)...)
	}
	return out
}

// setBranch records (joins) a terminator classification.
func (a *analysis) setBranch(fs *funcInfo, block uint32, u Uniformity, kind string) {
	if merged := fs.branch[block] | u; merged != fs.branch[block] || fs.branchKind[block] == "" {
		fs.branch[block] = merged
		fs.branchKind[block] = kind
		a.Changed = true
	}
}

// taintAll adds a cause to every register and the flags.
func taintAll(st *state, cause Uniformity) {
	for r := range st.regs {
		st.regs[r] |= cause
	}
	st.flags |= cause
}

// ctlTaint is the FromControl taint of a block inside an influence region.
func (fs *funcInfo) ctlTaint(b *ir.Block) Uniformity {
	if fs.influenced[b.ID] {
		return FromControl
	}
	return 0
}

// transferBlock interprets one block's instructions over st and classifies
// its jcc/switch terminator. Slots never cross a return: the VM shares SP
// across calls, so the caller sees the frame but the analysis
// conservatively forgets it.
func (a *analysis) transferBlock(fn int, b *ir.Block, st *state) {
	fs := a.fns[fn]
	ctl := fs.ctlTaint(b)
	for ii := 0; ii < len(b.Instrs)-1; ii++ {
		a.transferInstr(fs, st, &b.Instrs[ii], ctl)
	}
	term := b.Terminator()
	switch term.Op {
	case ir.OpJcc:
		a.setBranch(fs, uint32(b.ID), st.flags, "jcc")
	case ir.OpSwitch:
		a.setBranch(fs, uint32(b.ID), a.readOperand(fs, st, term.Src), "switch")
	case ir.OpRet:
		clearSlots(st)
	}
}

// call is the uniformity oracle's call policy. The continuation is the
// join of the callees' exit registers/flags with an emptied slot set (the
// callee shares the frame and may have clobbered it); an exit not yet
// computed yields the optimistic bottom, which the fixpoint corrects on
// later sweeps. Continuations of calls made under divergent control, and of
// indirect calls whose threads fan out across callees, are tainted.
func (a *analysis) call(fn int, b *ir.Block, st *state) (state, bool) {
	fs := a.fns[fn]
	phantom := a.Fns[fn].Phantom
	ctl := fs.ctlTaint(b)
	term := b.Terminator()
	if term.Op == ir.OpCall {
		if phantom {
			return worstState(), true
		}
		cont := a.invoke(term, st)
		if ctl != 0 {
			// The callee ran under divergent control: any value it defines —
			// which, context-insensitively, is any register — is suspect at
			// this continuation.
			taintAll(&cont, FromControl)
		}
		return cont, true
	}
	sel := a.readOperand(fs, st, term.Src)
	a.setBranch(fs, uint32(b.ID), sel, "callr")
	cont := worstState()
	if !phantom {
		cont = a.invoke(term, st)
	}
	if sel.Divergent() {
		// Threads in different callees: every value the calls produce
		// may differ per thread.
		taintAll(&cont, FromCall|sel)
	}
	taintAll(&cont, ctl)
	return cont, true
}

// invoke joins the caller's registers and flags (never its slots) into the
// callees' entry facts and returns their joined exit, or the optimistic
// bottom while none has returned.
func (a *analysis) invoke(term *ir.Instr, st *state) state {
	contrib := state{regs: st.regs, flags: st.flags, slots: map[slotKey]bool{}}
	cont, ok := a.Invoke(term, &contrib)
	if !ok {
		cont = state{slots: map[slotKey]bool{}}
	}
	return cont
}

// readOperand is the value-uniformity of one source operand.
func (a *analysis) readOperand(fs *funcInfo, st *state, o ir.Operand) Uniformity {
	switch o.Kind {
	case ir.OpndReg:
		return st.regs[o.Reg]
	case ir.OpndImm:
		return Uniform
	case ir.OpndMem:
		return a.loadUnif(fs, st, o.Mem)
	}
	return Uniform
}

// addrUnif is the uniformity of a memory operand's effective address.
func addrUnif(st *state, m ir.MemRef) Uniformity {
	u := st.regs[m.Base]
	if m.HasIndex {
		u |= st.regs[m.Index]
	}
	return u
}

// loadUnif is the uniformity of a loaded value: uniform only for a tracked
// SP-relative slot, divergent (FromMemory) otherwise — the static view
// cannot prove shared memory holds identical values per thread.
func (a *analysis) loadUnif(fs *funcInfo, st *state, m ir.MemRef) Uniformity {
	if m.Base == ir.SP && !m.HasIndex && !fs.writesSP && !a.stackEscapes {
		if st.slots[slotKey{m.Disp, m.Size}] {
			return Uniform
		}
	}
	return FromMemory
}

// store updates slot tracking for a stored value and flags stack-address
// escapes. val must already include any control taint.
func (a *analysis) store(fs *funcInfo, st *state, m ir.MemRef, val Uniformity) {
	if val&FromSP != 0 && !a.stackEscapes {
		// A stack address reached memory: a reloaded copy could alias any
		// frame slot, so slot tracking is no longer sound anywhere.
		a.stackEscapes = true
		a.Changed = true
	}
	if fs.writesSP || a.stackEscapes {
		clearSlots(st)
		return
	}
	if m.Base == ir.SP {
		if !m.HasIndex {
			key := slotKey{m.Disp, m.Size}
			clearOverlapping(st, m.Disp, int64(m.Size), key)
			if val == Uniform {
				st.slots[key] = true
			} else {
				delete(st.slots, key)
			}
			return
		}
		clearSlots(st) // indexed frame store: unknown offset
		return
	}
	if st.regs[m.Base]&FromSP != 0 || (m.HasIndex && st.regs[m.Index]&FromSP != 0) {
		clearSlots(st) // store through a frame-derived pointer
	}
}

func clearSlots(st *state) {
	for k := range st.slots {
		delete(st.slots, k)
	}
}

// clearOverlapping drops tracked slots overlapping [disp, disp+size) except
// the exactly-matching key (which the caller re-decides).
func clearOverlapping(st *state, disp, size int64, except slotKey) {
	for k := range st.slots {
		if k == except {
			continue
		}
		if k.disp < disp+size && disp < k.disp+int64(k.size) {
			delete(st.slots, k)
		}
	}
}

// def assigns a value to a destination operand (with control taint already
// folded into val by the caller).
func (a *analysis) def(fs *funcInfo, st *state, dst ir.Operand, val Uniformity) {
	switch dst.Kind {
	case ir.OpndReg:
		st.regs[dst.Reg] = val
	case ir.OpndMem:
		a.store(fs, st, dst.Mem, val)
	}
}

// transferInstr interprets one non-terminator instruction.
func (a *analysis) transferInstr(fs *funcInfo, st *state, in *ir.Instr, ctl Uniformity) {
	switch in.Op {
	case ir.OpNop, ir.OpLock, ir.OpUnlock, ir.OpIO, ir.OpSpin:
		// No register, flag, or tracked-slot effect. (Lock/Unlock use their
		// operand's address only.)
	case ir.OpMov:
		a.def(fs, st, in.Dst, a.readOperand(fs, st, in.Src)|ctl)
	case ir.OpLea:
		a.def(fs, st, in.Dst, addrUnif(st, in.Src.Mem)|ctl)
	case ir.OpCmp, ir.OpTest, ir.OpFCmp:
		st.flags = a.readOperand(fs, st, in.Dst) | a.readOperand(fs, st, in.Src) | ctl
	case ir.OpCmov:
		if in.Dst.IsMem() {
			// Conditional store: threads whose condition fails keep the old
			// slot value, so the result joins old, new, and the flags.
			old := a.loadUnif(fs, st, in.Dst.Mem)
			a.store(fs, st, in.Dst.Mem, old|a.readOperand(fs, st, in.Src)|st.flags|ctl)
		} else {
			st.regs[in.Dst.Reg] |= a.readOperand(fs, st, in.Src) | st.flags | ctl
		}
	case ir.OpNeg, ir.OpNot, ir.OpFSqrt, ir.OpFAbs:
		a.def(fs, st, in.Dst, a.readOperand(fs, st, in.Dst)|ctl)
	case ir.OpCvtIF, ir.OpCvtFI:
		a.def(fs, st, in.Dst, a.readOperand(fs, st, in.Src)|ctl)
	default:
		// Binary RMW ALU/FPU: add, sub, mul, div, rem, and, or, xor,
		// shifts, fadd..fdiv.
		a.def(fs, st, in.Dst, a.readOperand(fs, st, in.Dst)|a.readOperand(fs, st, in.Src)|ctl)
	}
}
