package staticlock

import (
	"threadfuser/internal/ir"
)

// Phase 2 runs a second interprocedural fixpoint over the converged symbolic
// register states: at every program point it tracks two shape-keyed held
// maps —
//
//   - must: shapes certainly held (intersection join, under-approximation).
//     A named shape in must at an access certifies a concrete lock held by
//     every thread executing it.
//   - may: shapes possibly held (union join, over-approximation), each with
//     a witness acquire site. Lock-order edges are drawn from may at every
//     acquire.
//
// Hold depths saturate at depthCap; a may entry at the cap becomes sticky
// (releases stop decrementing it), which keeps may an over-approximation
// under recursion deeper than the cap. A release through an unknown address
// ("?") could release anything: it clears must entirely and leaves may
// untouched.

// depthCap saturates recursion-depth tracking. Sticky at the cap: a may
// entry that reaches it is never removed again.
const depthCap = 7

// mayEntry is one possibly-held shape: its saturating depth and the
// smallest acquire-site index that first established it.
type mayEntry struct {
	depth   int8
	witness int32
}

// lstate is the phase-2 fact: must/may held maps keyed by shape string.
type lstate struct {
	must map[string]int8
	may  map[string]mayEntry
}

func newLstate() lstate {
	return lstate{must: map[string]int8{}, may: map[string]mayEntry{}}
}

func (s *lstate) clone() lstate {
	out := newLstate()
	for k, v := range s.must {
		out.must[k] = v
	}
	for k, v := range s.may {
		out.may[k] = v
	}
	return out
}

// ljoinInto merges src into dst (must: intersection with min depth; may:
// union with max depth and min witness) and reports whether dst changed.
func ljoinInto(dst, src *lstate) bool {
	changed := false
	for k, d := range dst.must {
		sd, ok := src.must[k]
		if !ok {
			delete(dst.must, k)
			changed = true
			continue
		}
		if sd < d {
			dst.must[k] = sd
			changed = true
		}
	}
	for k, sv := range src.may {
		dv, ok := dst.may[k]
		if !ok {
			dst.may[k] = sv
			changed = true
			continue
		}
		merged := dv
		if sv.depth > merged.depth {
			merged.depth = sv.depth
		}
		if sv.witness < merged.witness {
			merged.witness = sv.witness
		}
		if merged != dv {
			dst.may[k] = merged
			changed = true
		}
	}
	return changed
}

// acquire applies one lock acquire of the given shape at the given site.
func (s *lstate) acquire(shape string, site int32) {
	if d := s.must[shape]; d < depthCap {
		s.must[shape] = d + 1
	}
	e, ok := s.may[shape]
	if !ok {
		s.may[shape] = mayEntry{depth: 1, witness: site}
		return
	}
	if e.depth < depthCap {
		e.depth++
	}
	if site < e.witness {
		e.witness = site
	}
	s.may[shape] = e
}

// release applies one lock release of the given symbolic address. A precise
// shape releases exactly itself; an unknown address clears must (it might
// release any lock) and leaves may alone (it might release none).
func (s *lstate) release(v symval, shape string) {
	if !v.precise() {
		for k := range s.must {
			delete(s.must, k)
		}
		return
	}
	if d, ok := s.must[shape]; ok {
		if d > 1 {
			s.must[shape] = d - 1
		} else {
			delete(s.must, shape)
		}
	}
	if e, ok := s.may[shape]; ok && e.depth < depthCap { // at the cap: sticky
		if e.depth > 1 {
			e.depth--
			s.may[shape] = e
		} else {
			delete(s.may, shape)
		}
	}
}

// lockAnalysis is phase 2 over the converged phase-1 states.
type lockAnalysis struct {
	ir.Solver[lstate]
	prog    *ir.Program
	sym     *ir.Solver[state] // converged phase-1 states
	siteIdx map[siteKey]int32 // every OpLock/OpUnlock instruction, pre-indexed
}

// siteKey is the static identity of one lock-op instruction.
type siteKey struct {
	fn    uint32
	block uint32
	instr uint16
}

// solveLocks runs phase 2 from an empty held state at the program entry
// (nothing is held at program start) and at each phantom (nothing is
// certain, nothing known-possible from callers that do not exist). Like
// phase 1 it waits for a callee's exit before flowing a continuation, so it
// reaches exactly the blocks phase 1 reached. That wait is what makes the
// must (intersection) lattice work without a ⊤ initialization: a
// continuation is never seeded from a fact that does not exist yet.
func solveLocks(p *ir.Program, sym *ir.Solver[state]) *lockAnalysis {
	la := &lockAnalysis{prog: p, sym: sym, siteIdx: map[siteKey]int32{}}
	// Pre-index every lock-op site in program order; witness fields refer to
	// these indices, so they exist before the fixpoint runs.
	var n int32
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				if op := b.Instrs[ii].Op; op == ir.OpLock || op == ir.OpUnlock {
					la.siteIdx[siteKey{uint32(f.ID), uint32(b.ID), uint16(ii)}] = n
					n++
				}
			}
		}
	}
	la.Solver = ir.Solver[lstate]{
		Join:     ljoinInto,
		Clone:    (*lstate).clone,
		Transfer: la.transferBlock,
	}
	// A phantom's callees are analyzed on their own; assume nothing about
	// the continuation's held set beyond what may carries.
	la.Call = awaitReturn(&la.Solver, func(st *lstate) lstate {
		cont := newLstate()
		for k, v := range st.may {
			cont.may[k] = v
		}
		return cont
	})
	la.Run(p, newLstate(), newLstate)
	return la
}

// transferBlock replays the block's symbolic state alongside the held maps
// (lock shapes depend on the registers at each instruction).
func (la *lockAnalysis) transferBlock(fn int, b *ir.Block, st *lstate) {
	sym := la.sym.Fns[fn].In[b.ID]
	fid := uint32(la.prog.Funcs[fn].ID)
	for ii := 0; ii < len(b.Instrs)-1; ii++ {
		in := &b.Instrs[ii]
		if o, rel, ok := in.LockOperand(); ok {
			v := lockShape(&sym, o)
			shape := v.shape()
			if rel {
				st.release(v, shape)
			} else {
				st.acquire(shape, la.siteIdx[siteKey{fid, uint32(b.ID), uint16(ii)}])
			}
		}
		transferInstr(&sym, in)
	}
}
