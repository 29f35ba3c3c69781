package staticlock

import (
	"threadfuser/internal/ir"
)

// This file exports the package's symbolic linear-address machinery — the
// c + Σcoeff·root abstract domain and its interprocedural fixpoint — to the
// other static oracles. internal/staticmem classifies every load/store site
// by per-lane tid-stride over exactly the same converged register states the
// lock-shape analysis uses, so the two oracles can never disagree about what
// an address expression "is". The exported surface is read-only: a Symbolic
// hands out copies of block-entry states that callers step forward privately.

// Symbolic is the converged interprocedural symbolic-address fixpoint over a
// program: per function, the joined register state at every reached block
// entry. Obtain one with AnalyzeSymbolic; the value is immutable and safe
// for concurrent readers.
type Symbolic struct {
	s *ir.Solver[state]
}

// AnalyzeSymbolic runs the interprocedural symbolic dataflow (the phase-1
// fixpoint of the static concurrency oracle) over a program. Functions with
// no static call path from the entry are analyzed standalone under an
// all-unknown entry (see Phantom).
func AnalyzeSymbolic(p *ir.Program) *Symbolic {
	return &Symbolic{s: solveSymbolic(p)}
}

// Phantom reports whether the function has no static call path from the
// program entry: it was analyzed under an all-unknown entry state, so every
// shape inside it is worst-case.
func (s *Symbolic) Phantom(fn int) bool {
	return s.s.Fns[fn].Phantom
}

// BlockReached reports whether the fixpoint reached the block. Unreached
// blocks have no meaningful entry state (their addresses render as TopShape).
func (s *Symbolic) BlockReached(fn, block int) bool {
	fx := &s.s.Fns[fn]
	return block < len(fx.InSeen) && fx.InSeen[block]
}

// BlockState returns a copy of the converged register state at the block's
// entry. The copy is the caller's to mutate: Step it across the block's
// non-terminator instructions to obtain the state at each site.
func (s *Symbolic) BlockState(fn, block int) SymState {
	return SymState{st: s.s.Fns[fn].In[block]}
}

// SymState is one mutable symbolic register state, stepped forward
// instruction by instruction inside a block.
type SymState struct {
	st state
}

// Step interprets one instruction over the state. Terminators are ignored
// (they have no register effect the domain tracks).
func (st *SymState) Step(in *ir.Instr) {
	if !in.Op.IsTerminator() {
		transferInstr(&st.st, in)
	}
}

// Addr evaluates a memory operand's effective address
// (base + scale·index + disp) over the current state.
func (st *SymState) Addr(m ir.MemRef) SymAddr {
	return SymAddr{v: addrOf(&st.st, m)}
}

// SymAddr is one symbolic effective address.
type SymAddr struct {
	v symval
}

// Precise reports a fully-known linear address (neither unknown nor
// unreached-bottom).
func (a SymAddr) Precise() bool { return a.v.precise() }

// Uniform reports an address that is identical for every thread of a run:
// linear over arg roots and constants only (the shared-world assumption of
// DESIGN.md §13 gives arg roots that meaning).
func (a SymAddr) Uniform() bool { return a.v.named() }

// TIDCoeff returns the tid term's coefficient: the address's explicit
// per-thread stride in bytes. Meaningful only when Precise.
func (a SymAddr) TIDCoeff() int64 { return a.v.tidCoeff() }

// SPCoeff returns the sp term's coefficient. The entry stack pointer itself
// strides by vm.StackSize per thread, so an address's effective per-thread
// stride is TIDCoeff() + SPCoeff()·vm.StackSize.
func (a SymAddr) SPCoeff() int64 { return a.v.coeffOf(rootSP) }

// SPRooted reports a linear address containing the sp root — an address in
// the thread's private stack segment.
func (a SymAddr) SPRooted() bool { return a.v.spRooted() }

// Shape renders the canonical string form of the address ("?" when unknown),
// the same identity rendering the lock oracle uses.
func (a SymAddr) Shape() string { return a.v.shape() }
