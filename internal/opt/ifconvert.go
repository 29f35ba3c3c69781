package opt

import (
	"sort"

	"threadfuser/internal/ir"
)

// IfConvert flattens branch diamonds into straight-line cmov code, the
// divergence-removing transform the paper blames for the analyzer's O3
// optimism. A diamond
//
//	A: ... ; jcc c, T, F
//	T: t1..tn ; jmp J
//	F: f1..fm ; jmp J
//
// becomes
//
//	A: ... ; t1'..tn' ; f1'..fm' ; cmov(c) selects ; jmp J
//
// where both sides' instructions are renamed to write scratch registers and
// cmovs merge the results by the branch condition. Conversion requires both
// sides to be speculation-safe: register/load-only (no stores, calls, locks,
// I/O), no flag writers (the selects need A's flags), and within the size
// budget. Loads are speculated, as compilers do — the converted code issues
// both sides' loads, which is visible in the memory metrics.
//
// It returns the number of diamonds converted.
func IfConvert(p *ir.Program, budget int) int {
	return ifConvert(p, budget, false)
}

// IfConvertStores is the -O3 aggressive variant: branch sides may contain
// plain stores, which become conditional (cmov-to-memory) stores. The
// untaken path still touches the address (reading and rewriting the old
// value), the observable cost of select/masked-store if-conversion — extra
// memory traffic on the CPU binary that the GPU build does not have, one of
// the reasons the paper's O3 memory estimates drift.
func IfConvertStores(p *ir.Program, budget int) int {
	return ifConvert(p, budget, true)
}

// IfConvertReport runs the same sweep as IfConvert/IfConvertStores but also
// returns a DiamondReport for every candidate diamond it examined — converted
// or skipped, with the reasons for each skip — so downstream consumers (the
// static melding matcher in internal/staticsimt, examples/portingadvisor)
// can explain *why* a divergent diamond survives the optimizer. Reports are
// in program order (function id, then block id). Like IfConvert, it mutates
// the program; use ExamineMeld for a read-only view of a single diamond.
func IfConvertReport(p *ir.Program, budget int, stores bool) (int, []DiamondReport) {
	converted := 0
	var reps []DiamondReport
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			rep, ok := examineDiamond(f, b, budget, stores)
			if !ok {
				continue
			}
			if rep.Convertible && convertDiamond(f, b, budget, stores) {
				rep.Converted = true
				converted++
			}
			reps = append(reps, rep)
		}
	}
	return converted, reps
}

func ifConvert(p *ir.Program, budget int, stores bool) int {
	converted := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if convertDiamond(f, b, budget, stores) {
				converted++
			}
		}
	}
	return converted
}

// Reason explains why if-conversion skipped a candidate diamond.
type Reason string

// Skip reasons, in the vocabulary portingadvisor and the static melding
// matcher present to users.
const (
	// ReasonShape: a branch side has internal control flow — it does not end
	// in an unconditional jump to a join block.
	ReasonShape Reason = "shape"
	// ReasonCalls: a branch side ends in a call; speculating calls is unsafe.
	ReasonCalls Reason = "calls"
	// ReasonBudget: a side exceeds the per-side instruction budget.
	ReasonBudget Reason = "budget"
	// ReasonFlags: a side reads or writes the flags (cmp/test/fcmp/cmov);
	// the selects need the branch condition's flags intact.
	ReasonFlags Reason = "flags"
	// ReasonSideEffects: a side contains lock/unlock/io/spin.
	ReasonSideEffects Reason = "side-effects"
	// ReasonStores: a side contains a plain store and the sweep is not in
	// aggressive (-O3) conditional-store mode.
	ReasonStores Reason = "stores"
	// ReasonRMWStore: a side read-modify-writes memory, which even the
	// aggressive mode cannot predicate.
	ReasonRMWStore Reason = "rmw-store"
	// ReasonReserved: a side writes SP or TID.
	ReasonReserved Reason = "reserved-regs"
	// ReasonJoin: the two sides do not rejoin at a common block.
	ReasonJoin Reason = "join-mismatch"
	// ReasonScratch: the renamed temporaries would exhaust the scratch
	// register file.
	ReasonScratch Reason = "scratch"
	// ReasonMemCoalesce: a memory oracle (ExamineMeld's MeldMemCheck) judged
	// that flattening would break a coalesced access pattern — the melded
	// straight-line code would issue both arms' memory traffic on every lane.
	ReasonMemCoalesce Reason = "mem-coalesce"
)

// DiamondReport describes one examined if-conversion candidate: a block
// ending in a two-way conditional branch with distinct, non-self targets.
type DiamondReport struct {
	Func     ir.FuncID  `json:"func"`
	FuncName string     `json:"func_name"`
	Block    ir.BlockID `json:"block"`
	// Kind is "diamond", "hammock" (taken side rejoins at the fall-through)
	// or "inverted-hammock" (fall-through side rejoins at the taken target).
	Kind string `json:"kind"`
	// Convertible reports whether the sweep would flatten this candidate;
	// Converted whether a mutating sweep actually did.
	Convertible bool `json:"convertible"`
	Converted   bool `json:"converted,omitempty"`
	// Reasons lists why the candidate was skipped (empty iff Convertible),
	// deduplicated and sorted.
	Reasons []Reason `json:"reasons,omitempty"`
	// ThenInstrs/ElseInstrs are the side body sizes excluding terminators
	// (a hammock has one side in the branch and zero in the fall-through).
	ThenInstrs int `json:"then_instrs"`
	ElseInstrs int `json:"else_instrs"`
}

// MeldMemCheck judges whether flattening a candidate is legal from a memory
// oracle's point of view. It receives the real arm blocks of the candidate —
// for a hammock only thenSide is set, for an inverted hammock only elseSide,
// for a full diamond both — never the join block. Returning false vetoes the
// meld (ReasonMemCoalesce).
type MeldMemCheck func(thenSide, elseSide *ir.Block) bool

// ExamineMeld is the read-only view of one candidate: it reports whether
// block b of f is an if-conversion candidate (a two-way Jcc diamond or
// hammock) and, if so, whether the given budget and store mode would convert
// it and why not otherwise. It never mutates the program. After the
// structural checks, mem (if non-nil) is consulted with the candidate's arm
// blocks, and a veto appends ReasonMemCoalesce and clears Convertible. Which
// blocks are arms depends on the candidate's kind, so the dispatch lives here
// rather than in callers: passing Target/Fall blindly would hand a hammock's
// join block to the oracle as if it were an arm.
func ExamineMeld(f *ir.Function, b *ir.Block, budget int, stores bool, mem MeldMemCheck) (DiamondReport, bool) {
	rep, ok := examineDiamond(f, b, budget, stores)
	if !ok || mem == nil {
		return rep, ok
	}
	term := b.Terminator()
	var thenSide, elseSide *ir.Block
	switch rep.Kind {
	case "hammock":
		thenSide = f.Blocks[term.Target]
	case "inverted-hammock":
		elseSide = f.Blocks[term.Fall]
	default:
		thenSide, elseSide = f.Blocks[term.Target], f.Blocks[term.Fall]
	}
	if !mem(thenSide, elseSide) {
		rep.Reasons = dedupeReasons(append(rep.Reasons, ReasonMemCoalesce))
		rep.Convertible = false
	}
	return rep, true
}

// maxScratch is how many distinct renamed destinations the scratch file
// r16..r29 can hold.
const maxScratch = int(ir.TID - scratchBase)

func examineDiamond(f *ir.Function, b *ir.Block, budget int, stores bool) (DiamondReport, bool) {
	term := b.Terminator()
	if term.Op != ir.OpJcc || term.Target == term.Fall ||
		term.Target == b.ID || term.Fall == b.ID {
		return DiamondReport{}, false
	}
	t := f.Blocks[term.Target]
	fb := f.Blocks[term.Fall]
	tJoin, tJoinOK, tReasons := examineSide(t, budget, stores)
	fJoin, fJoinOK, fReasons := examineSide(fb, budget, stores)
	tOK, fOK := len(tReasons) == 0, len(fReasons) == 0

	rep := DiamondReport{
		Func: f.ID, FuncName: f.Name, Block: b.ID,
		ThenInstrs: len(t.Instrs) - 1, ElseInstrs: len(fb.Instrs) - 1,
	}
	finish := func(reasons ...Reason) (DiamondReport, bool) {
		rep.Reasons = dedupeReasons(reasons)
		rep.Convertible = len(rep.Reasons) == 0
		return rep, true
	}

	// One-sided hammock "if (c) { T }": the taken side rejoins at the
	// fall-through block. Mirrors convertDiamond's dispatch order exactly.
	if tOK && tJoin == term.Fall {
		rep.Kind = "hammock"
		rep.ElseInstrs = 0
		if distinctDefs(t) > maxScratch {
			return finish(ReasonScratch)
		}
		return finish()
	}
	// Inverted hammock "if (!c) { F }".
	if fOK && fJoin == term.Target {
		rep.Kind = "inverted-hammock"
		rep.ThenInstrs = 0
		rep.ElseInstrs = len(fb.Instrs) - 1
		if distinctDefs(fb) > maxScratch {
			return finish(ReasonScratch)
		}
		return finish()
	}

	rep.Kind = "diamond"
	reasons := append(append([]Reason(nil), tReasons...), fReasons...)
	if tJoinOK && fJoinOK && tJoin != fJoin {
		reasons = append(reasons, ReasonJoin)
	}
	if len(reasons) == 0 && distinctDefs(t)+distinctDefs(fb) > maxScratch {
		reasons = append(reasons, ReasonScratch)
	}
	return finish(reasons...)
}

// examineSide is diamondSide with full reason accounting: it checks every
// instruction instead of stopping at the first violation, and reports the
// join target whenever the side at least ends in an unconditional jump
// (joinOK), even if its body disqualifies it.
func examineSide(b *ir.Block, budget int, stores bool) (join ir.BlockID, joinOK bool, reasons []Reason) {
	switch b.Terminator().Op {
	case ir.OpJmp:
		join, joinOK = b.Terminator().Target, true
	case ir.OpCall, ir.OpCallR:
		return 0, false, []Reason{ReasonCalls}
	default:
		return 0, false, []Reason{ReasonShape}
	}
	body := b.Instrs[: len(b.Instrs)-1 : len(b.Instrs)-1]
	if len(body) > budget {
		reasons = append(reasons, ReasonBudget)
	}
	for i := range body {
		in := &body[i]
		switch in.Op {
		case ir.OpCmp, ir.OpTest, ir.OpFCmp, ir.OpCmov:
			reasons = append(reasons, ReasonFlags)
			continue
		case ir.OpLock, ir.OpUnlock, ir.OpIO, ir.OpSpin:
			reasons = append(reasons, ReasonSideEffects)
			continue
		}
		if in.Dst.IsMem() {
			switch {
			case in.Op != ir.OpMov:
				reasons = append(reasons, ReasonRMWStore)
			case !stores:
				reasons = append(reasons, ReasonStores)
			}
			continue
		}
		if in.Dst.Kind == ir.OpndReg && (in.Dst.Reg == ir.SP || in.Dst.Reg == ir.TID) {
			reasons = append(reasons, ReasonReserved)
		}
		if in.Dst.Kind == ir.OpndImm {
			reasons = append(reasons, ReasonShape) // malformed destination
		}
	}
	return join, joinOK, reasons
}

// distinctDefs counts the distinct register destinations a side body writes —
// each costs one scratch temporary in renameSide.
func distinctDefs(b *ir.Block) int {
	var seen [ir.NumRegs]bool
	n := 0
	for i := range b.Instrs[:len(b.Instrs)-1] {
		in := &b.Instrs[i]
		if in.Dst.Kind == ir.OpndReg && !seen[in.Dst.Reg] {
			seen[in.Dst.Reg] = true
			n++
		}
	}
	return n
}

func dedupeReasons(rs []Reason) []Reason {
	if len(rs) == 0 {
		return nil
	}
	seen := map[Reason]bool{}
	out := rs[:0]
	for _, r := range rs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scratchBase..NumRegs-3 are the temporaries the renamer may allocate; the
// workload register conventions leave r16..r29 unused.
const scratchBase = ir.Reg(16)

func convertDiamond(f *ir.Function, b *ir.Block, budget int, stores bool) bool {
	rep, ok := examineDiamond(f, b, budget, stores)
	if !ok || !rep.Convertible {
		return false
	}
	term := b.Terminator()
	switch rep.Kind {
	case "hammock":
		return convertHammock(b, f.Blocks[term.Target], term.Cond, term.Fall, stores)
	case "inverted-hammock":
		return convertHammock(b, f.Blocks[term.Fall], negate(term.Cond), term.Target, stores)
	}
	t := f.Blocks[term.Target]
	fb := f.Blocks[term.Fall]
	join := t.Terminator().Target

	nextScratch := scratchBase
	alloc := func() (ir.Reg, bool) {
		if nextScratch >= ir.TID {
			return 0, false
		}
		r := nextScratch
		nextScratch++
		return r, true
	}

	// Rename both sides; collect (original, temp) pairs for the selects.
	tInstrs, tSel, ok := renameSide(t, alloc, term.Cond, stores)
	if !ok {
		return false
	}
	fInstrs, fSel, ok := renameSide(fb, alloc, negate(term.Cond), stores)
	if !ok {
		return false
	}

	out := append([]ir.Instr{}, b.Instrs[:len(b.Instrs)-1]...)
	out = append(out, tInstrs...)
	out = append(out, fInstrs...)
	for _, s := range tSel {
		out = append(out, ir.Instr{Op: ir.OpCmov, Cond: term.Cond, Dst: ir.Rg(s.orig), Src: ir.Rg(s.temp)})
	}
	notC := negate(term.Cond)
	for _, s := range fSel {
		out = append(out, ir.Instr{Op: ir.OpCmov, Cond: notC, Dst: ir.Rg(s.orig), Src: ir.Rg(s.temp)})
	}
	out = append(out, ir.Instr{Op: ir.OpJmp, Target: join})
	b.Instrs = out
	return true
}

// convertHammock flattens a one-sided diamond: side executes speculatively
// into temps and cmov(cond) commits it; control falls through to join.
func convertHammock(b, side *ir.Block, cond ir.Cond, join ir.BlockID, stores bool) bool {
	nextScratch := scratchBase
	alloc := func() (ir.Reg, bool) {
		if nextScratch >= ir.TID {
			return 0, false
		}
		r := nextScratch
		nextScratch++
		return r, true
	}
	instrs, sels, ok := renameSide(side, alloc, cond, stores)
	if !ok {
		return false
	}
	out := append([]ir.Instr{}, b.Instrs[:len(b.Instrs)-1]...)
	out = append(out, instrs...)
	for _, s := range sels {
		out = append(out, ir.Instr{Op: ir.OpCmov, Cond: cond, Dst: ir.Rg(s.orig), Src: ir.Rg(s.temp)})
	}
	out = append(out, ir.Instr{Op: ir.OpJmp, Target: join})
	b.Instrs = out
	return true
}

type sel struct{ orig, temp ir.Reg }

// renameSide rewrites a side's instructions so every register it defines is
// replaced by a fresh scratch register (reads of a renamed register within
// the side follow the rename; reads of untouched registers see the original
// values). It returns the rewritten instructions and the select list.
func renameSide(b *ir.Block, alloc func() (ir.Reg, bool), storeCond ir.Cond, stores bool) ([]ir.Instr, []sel, bool) {
	body := b.Instrs[:len(b.Instrs)-1]
	rename := map[ir.Reg]ir.Reg{}
	var sels []sel
	out := make([]ir.Instr, 0, len(body)+2)

	mapReg := func(r ir.Reg) ir.Reg {
		if nr, ok := rename[r]; ok {
			return nr
		}
		return r
	}
	mapOperandRead := func(o ir.Operand) ir.Operand {
		switch o.Kind {
		case ir.OpndReg:
			o.Reg = mapReg(o.Reg)
		case ir.OpndMem:
			o.Mem.Base = mapReg(o.Mem.Base)
			if o.Mem.HasIndex {
				o.Mem.Index = mapReg(o.Mem.Index)
			}
		}
		return o
	}

	for _, in := range body {
		in.Src = mapOperandRead(in.Src)
		if in.Dst.IsMem() {
			// Aggressive mode: a plain store becomes a conditional store
			// (cmov to memory) guarded by the side's condition. The
			// address registers are reads and follow the renaming.
			if !stores || in.Op != ir.OpMov {
				return nil, nil, false
			}
			in.Op = ir.OpCmov
			in.Cond = storeCond
			in.Dst = mapOperandRead(in.Dst)
			out = append(out, in)
			continue
		}
		if in.Dst.Kind != ir.OpndReg {
			// Only register destinations survive diamondSide, plus
			// OpndNone for Nop.
			if in.Dst.Kind != ir.OpndNone {
				return nil, nil, false
			}
			out = append(out, in)
			continue
		}
		orig := in.Dst.Reg
		readsDst := in.Op != ir.OpMov && in.Op != ir.OpLea
		cur := mapReg(orig)
		temp, known := rename[orig]
		if !known {
			var ok bool
			temp, ok = alloc()
			if !ok {
				return nil, nil, false
			}
			if readsDst {
				// Seed the temp with the original value so RMW ops see it.
				out = append(out, ir.Instr{Op: ir.OpMov, Dst: ir.Rg(temp), Src: ir.Rg(cur)})
			}
			rename[orig] = temp
			sels = append(sels, sel{orig: orig, temp: temp})
		}
		in.Dst = ir.Rg(temp)
		out = append(out, in)
	}
	return out, sels, true
}

// negate returns the complementary condition.
func negate(c ir.Cond) ir.Cond {
	switch c {
	case ir.CondEQ:
		return ir.CondNE
	case ir.CondNE:
		return ir.CondEQ
	case ir.CondLT:
		return ir.CondGE
	case ir.CondGE:
		return ir.CondLT
	case ir.CondLE:
		return ir.CondGT
	case ir.CondGT:
		return ir.CondLE
	case ir.CondULT:
		return ir.CondUGE
	case ir.CondUGE:
		return ir.CondULT
	}
	return c
}
