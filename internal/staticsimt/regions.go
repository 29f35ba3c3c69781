package staticsimt

import (
	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
)

// result builds the public Result from the converged fixpoint: branch
// classifications, divergent-region extents, meld findings, and the static
// memory-address uniformity counts.
func (a *analysis) result() *Result {
	r := &Result{Program: a.prog.Name, StackEscapes: a.stackEscapes}
	a.meldsRejectedMem = 0
	divCtx := a.divergentContexts()
	for fi, fs := range a.fns {
		fx := &a.Fns[fi]
		fr := FuncResult{ID: uint32(fs.f.ID), Name: fs.f.Name, Unreachable: fx.Phantom}
		g := a.graphs[fr.ID]
		pd := a.pdoms[fr.ID]
		for bi, b := range fs.f.Blocks {
			term := b.Terminator()
			var kind string
			switch term.Op {
			case ir.OpJcc:
				kind = "jcc"
			case ir.OpSwitch:
				kind = "switch"
			case ir.OpCallR:
				kind = "callr"
			}
			if kind == "" {
				continue
			}
			bid := uint32(b.ID)
			br := Branch{Block: bid, Kind: kind, Reconverge: pd.IPDom(int32(bid))}
			if !fx.InSeen[bi] {
				br.Uniform = true
				br.Unreachable = true
			} else {
				u := fs.branch[bid]
				br.Uniform = !u.Divergent()
				br.Causes = u.Causes()
				if !br.Uniform && kind != "callr" {
					br.RegionBlocks = a.regionBlocks(g, pd, int32(bid))
					for _, rb := range br.RegionBlocks {
						br.RegionInstrs += fs.f.Blocks[rb].NumInstrs()
					}
					if m, ok := a.meldAt(fs, b); ok {
						m.Reconverge = br.Reconverge
						fr.Melds = append(fr.Melds, m)
					}
				}
			}
			if br.Uniform {
				r.UniformBranches++
			} else {
				r.DivergentBranches++
			}
			fr.Branches = append(fr.Branches, br)
		}
		for bid, infl := range fs.influenced {
			if infl {
				fr.Influenced = append(fr.Influenced, uint32(bid))
			}
		}
		fr.DivergentContext = divCtx[fs.f.ID]
		fr.MemUniform, fr.MemDivergent = a.memProfile(fi)
		r.Meldable += len(fr.Melds)
		r.Funcs = append(r.Funcs, fr)
	}
	r.MeldsRejectedMem = a.meldsRejectedMem
	sortResult(r)
	return r
}

// divergentContexts computes, per function, whether some call path can enter
// it with an already-split warp: a direct call from an influenced block, an
// indirect call with a divergent selector (threads fan out across callees),
// or any call made by a function that is itself in divergent context. The
// closure is a plain reachability worklist over the converged fixpoint.
func (a *analysis) divergentContexts() []bool {
	divCtx := make([]bool, len(a.fns))
	var queue []int
	mark := func(fi int) {
		if fi >= 0 && fi < len(divCtx) && !divCtx[fi] {
			divCtx[fi] = true
			queue = append(queue, fi)
		}
	}
	markAll := func() {
		for fi := range divCtx {
			mark(fi)
		}
	}
	// forEachCall visits the reached call terminators of one function.
	forEachCall := func(fi int, visit func(term *ir.Instr, influenced bool, selDivergent bool)) {
		fs := a.fns[fi]
		for bi, b := range fs.f.Blocks {
			if !a.Fns[fi].InSeen[bi] {
				continue
			}
			term := b.Terminator()
			if term.Op != ir.OpCall && term.Op != ir.OpCallR {
				continue
			}
			visit(term, fs.influenced[b.ID], fs.branch[uint32(b.ID)].Divergent())
		}
	}
	// Seed: calls made under divergent control in any reached function.
	for fi := range a.fns {
		if a.Fns[fi].Phantom {
			continue
		}
		forEachCall(fi, func(term *ir.Instr, influenced, selDivergent bool) {
			switch term.Op {
			case ir.OpCall:
				if influenced {
					mark(int(term.Callee))
				}
			case ir.OpCallR:
				if influenced || selDivergent {
					markAll()
				}
			}
		})
	}
	// Closure: everything a divergent-context function calls inherits it.
	for len(queue) > 0 {
		fi := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if a.Fns[fi].Phantom {
			continue
		}
		forEachCall(fi, func(term *ir.Instr, _, _ bool) {
			if term.Op == ir.OpCall {
				mark(int(term.Callee))
			} else {
				markAll()
			}
		})
	}
	return divCtx
}

// memProfile counts the function's static memory operands by effective-
// address uniformity, replaying each reached block over its converged entry
// fact so address registers reflect the state at the access.
func (a *analysis) memProfile(fi int) (uniform, divergent int) {
	fs, fx := a.fns[fi], &a.Fns[fi]
	for bi, b := range fs.f.Blocks {
		if !fx.InSeen[bi] {
			continue
		}
		st := fx.In[bi].clone()
		ctl := fs.ctlTaint(b)
		count := func(o ir.Operand) {
			if !o.IsMem() {
				return
			}
			if addrUnif(&st, o.Mem).Divergent() {
				divergent++
			} else {
				uniform++
			}
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Op != ir.OpLea { // lea computes an address, never accesses it
				count(in.Src)
			}
			count(in.Dst)
			if !in.Op.IsTerminator() {
				a.transferInstr(fs, &st, in, ctl)
			}
		}
	}
	return uniform, divergent
}

// meldAt runs the DARM-style matcher at one divergent jcc: isomorphic arms
// first (meldable as one region with lane-select operands), then
// opt.ExamineMeld for diamonds rejected purely on the if-conversion budget.
func (a *analysis) meldAt(fs *funcInfo, b *ir.Block) (Meld, bool) {
	term := b.Terminator()
	if term.Op != ir.OpJcc || term.Target == term.Fall {
		return Meld{}, false
	}
	blocks := fs.f.Blocks
	if int(term.Target) >= len(blocks) || int(term.Fall) >= len(blocks) {
		return Meld{}, false
	}
	tb, eb := blocks[term.Target], blocks[term.Fall]
	if tb.ID == b.ID || eb.ID == b.ID {
		return Meld{}, false
	}
	var mem opt.MeldMemCheck
	if a.opts.MeldMem != nil {
		mem = a.opts.MeldMem(uint32(fs.f.ID))
	}
	tt, et := tb.Terminator(), eb.Terminator()
	if tt.Op == ir.OpJmp && et.Op == ir.OpJmp && tt.Target == et.Target &&
		tt.Target != tb.ID && tt.Target != eb.ID && isomorphicArms(tb, eb) {
		if mem != nil && !mem(tb, eb) {
			a.meldsRejectedMem++
			return Meld{}, false
		}
		n := tb.NumInstrs() - 1
		m := eb.NumInstrs() - 1
		return Meld{
			Block:       uint32(b.ID),
			Kind:        "isomorphic-arms",
			ThenBlock:   uint32(tb.ID),
			ElseBlock:   uint32(eb.ID),
			ThenInstrs:  n,
			ElseInstrs:  m,
			SavedIssues: min(n, m),
		}, true
	}
	rep, ok := opt.ExamineMeld(fs.f, b, a.opts.MeldBudget, true, mem)
	if !ok || rep.Convertible {
		return Meld{}, false
	}
	// Keep only budget-pure rejections; a memory veto among otherwise
	// budget-only reasons means the candidate would have been reported (or
	// even flattened at a larger budget) but the oracle forbids it.
	memVeto := false
	for _, reason := range rep.Reasons {
		switch reason {
		case opt.ReasonBudget:
		case opt.ReasonMemCoalesce:
			memVeto = true
		default:
			return Meld{}, false
		}
	}
	if memVeto {
		a.meldsRejectedMem++
		return Meld{}, false
	}
	return Meld{
		Block:       uint32(b.ID),
		Kind:        "if-convertible-over-budget",
		ThenBlock:   uint32(term.Target),
		ElseBlock:   uint32(term.Fall),
		ThenInstrs:  rep.ThenInstrs,
		ElseInstrs:  rep.ElseInstrs,
		SavedIssues: min(rep.ThenInstrs, rep.ElseInstrs),
		NeedBudget:  max(rep.ThenInstrs, rep.ElseInstrs),
	}, true
}

// isomorphicArms reports whether two single-block arms run the same
// instruction sequence modulo a consistent register renaming — DARM's
// melding precondition. Immediates, displacements, scales, access sizes and
// conditions must match exactly; registers must map one-to-one.
func isomorphicArms(x, y *ir.Block) bool {
	if len(x.Instrs) != len(y.Instrs) {
		return false
	}
	fwd := map[ir.Reg]ir.Reg{}
	rev := map[ir.Reg]ir.Reg{}
	mapReg := func(a, b ir.Reg) bool {
		if m, ok := fwd[a]; ok {
			return m == b
		}
		if m, ok := rev[b]; ok {
			return m == a
		}
		fwd[a] = b
		rev[b] = a
		return true
	}
	isoOperand := func(p, q ir.Operand) bool {
		if p.Kind != q.Kind {
			return false
		}
		switch p.Kind {
		case ir.OpndReg:
			return mapReg(p.Reg, q.Reg)
		case ir.OpndImm:
			return p.Imm == q.Imm
		case ir.OpndMem:
			pm, qm := p.Mem, q.Mem
			if pm.HasIndex != qm.HasIndex || pm.Scale != qm.Scale ||
				pm.Disp != qm.Disp || pm.Size != qm.Size {
				return false
			}
			if !mapReg(pm.Base, qm.Base) {
				return false
			}
			if pm.HasIndex && !mapReg(pm.Index, qm.Index) {
				return false
			}
			return true
		}
		return true
	}
	for i := 0; i < len(x.Instrs)-1; i++ {
		p, q := &x.Instrs[i], &y.Instrs[i]
		if p.Op != q.Op || p.Cond != q.Cond {
			return false
		}
		if !isoOperand(p.Dst, q.Dst) || !isoOperand(p.Src, q.Src) {
			return false
		}
	}
	return true
}
