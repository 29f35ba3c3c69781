package ir

// Solver is the interprocedural fixpoint driver the static oracles share.
// It owns the per-function facts (entry, exit and block-entry states, their
// seen flags, which double as reachability, and the phantom mark), the
// intraprocedural successor dispatch and the sweep order; an analysis
// supplies its lattice (Join, Clone), its instruction transfer and its call
// policy.
//
// The analysis is context-insensitive: a callee's entry fact is the join
// over every reached call site and its exit fact the join over every
// reached return. Run seeds the program entry and sweeps every reached
// function, in id order and each one's reached blocks in id order, until a
// whole sweep changes nothing. Functions with no call path from the entry
// ("phantoms") are then solved one at a time, in id order, under the
// phantom seed; a phantom's call policy must not contribute back into the
// live program.
type Solver[S any] struct {
	// Join merges src into dst and reports whether dst changed.
	Join func(dst, src *S) bool
	// Clone returns a copy of a fact that shares nothing mutable with it.
	Clone func(src *S) S
	// Transfer interprets block b's non-terminator instructions over st, a
	// private copy of the block's entry fact, plus any side effect of its
	// terminator other than control flow. The solver then dispatches the
	// terminator on st.
	Transfer func(fn int, b *Block, st *S)
	// Call is the call policy: the fact at a call terminator's continuation
	// (term.Fall) given the state st at the call, and whether it flows at all
	// yet. Invoke implements the part every policy shares.
	Call func(fn int, b *Block, st *S) (cont S, ok bool)
	// Sweep, when set, runs before each sweep over one function.
	Sweep func(fn int)

	// Fns holds the facts, indexed by function id. Valid after Run.
	Fns []Facts[S]
	// Changed records that a fact grew during the current sweep; hooks that
	// keep side state of their own set it when that state grows.
	Changed bool

	prog *Program
}

// Facts is one function's fixpoint state.
type Facts[S any] struct {
	Entry, Exit         S   // joins over all call sites and all returns
	In                  []S // joined entry fact per block
	EntrySeen, ExitSeen bool
	InSeen              []bool
	// Phantom marks a function with no call path from the program entry,
	// solved on its own under the phantom seed.
	Phantom bool
}

// Run solves p: seed is the entry function's entry fact and phantom makes
// the entry fact of each unreached function.
func (s *Solver[S]) Run(p *Program, seed S, phantom func() S) {
	s.prog = p
	s.Fns = make([]Facts[S], len(p.Funcs))
	for i, f := range p.Funcs {
		s.Fns[i].In = make([]S, len(f.Blocks))
		s.Fns[i].InSeen = make([]bool, len(f.Blocks))
	}
	s.Fns[p.Entry].Entry = seed
	s.Fns[p.Entry].EntrySeen = true
	for {
		s.Changed = false
		for fn := range s.Fns {
			if s.Fns[fn].EntrySeen {
				s.sweep(fn)
			}
		}
		if !s.Changed {
			break
		}
	}

	for fn := range s.Fns {
		fx := &s.Fns[fn]
		if fx.EntrySeen {
			continue
		}
		fx.Phantom = true
		fx.Entry = phantom()
		fx.EntrySeen = true
		for {
			s.Changed = false
			s.sweep(fn)
			if !s.Changed {
				break
			}
		}
	}
}

// sweep does one monotone pass over a function: join its entry fact into
// block 0, then transfer every reached block in order and propagate to
// successors, callees and the exit.
func (s *Solver[S]) sweep(fn int) {
	if s.Sweep != nil {
		s.Sweep(fn)
	}
	fx := &s.Fns[fn]
	s.into(&fx.In[0], &fx.InSeen[0], &fx.Entry)
	for bi, b := range s.prog.Funcs[fn].Blocks {
		if !fx.InSeen[bi] {
			continue
		}
		st := s.Clone(&fx.In[bi])
		s.Transfer(fn, b, &st)
		s.dispatch(fn, b, &st)
	}
}

// dispatch propagates a block's exit state along its terminator.
func (s *Solver[S]) dispatch(fn int, b *Block, st *S) {
	term := b.Terminator()
	switch term.Op {
	case OpJmp:
		s.Flow(fn, st, term.Target)
	case OpJcc:
		s.Flow(fn, st, term.Target)
		s.Flow(fn, st, term.Fall)
	case OpSwitch:
		for _, t := range term.Targets {
			s.Flow(fn, st, t)
		}
	case OpRet:
		s.Leave(fn, st)
	case OpCall, OpCallR:
		if term.Op == OpCall && int(term.Callee) >= len(s.Fns) {
			return
		}
		if cont, ok := s.Call(fn, b, st); ok {
			s.Flow(fn, &cont, term.Fall)
		}
	}
}

// Flow joins st into the entry fact of block target of function fn.
func (s *Solver[S]) Flow(fn int, st *S, target BlockID) {
	fx := &s.Fns[fn]
	if int(target) >= len(fx.In) {
		return
	}
	s.into(&fx.In[target], &fx.InSeen[target], st)
}

// Enter joins st into function fn's entry fact.
func (s *Solver[S]) Enter(fn int, st *S) {
	fx := &s.Fns[fn]
	s.into(&fx.Entry, &fx.EntrySeen, st)
}

// Leave joins st into function fn's exit fact.
func (s *Solver[S]) Leave(fn int, st *S) {
	fx := &s.Fns[fn]
	s.into(&fx.Exit, &fx.ExitSeen, st)
}

// into joins src into dst, or copies it there the first time dst is seen.
func (s *Solver[S]) into(dst *S, seen *bool, src *S) {
	if !*seen {
		*dst = s.Clone(src)
		*seen = true
		s.Changed = true
		return
	}
	if s.Join(dst, src) {
		s.Changed = true
	}
}

// Invoke is the plain call policy's core: it enters st into every callee of
// the call terminator term (the direct callee, or every function for an
// indirect call) and returns the join of the callee exit facts computed so
// far; ok is false while none of them has returned.
func (s *Solver[S]) Invoke(term *Instr, st *S) (cont S, ok bool) {
	lo, hi := int(term.Callee), int(term.Callee)+1
	if term.Op == OpCallR {
		lo, hi = 0, len(s.Fns)
	}
	for callee := lo; callee < hi; callee++ {
		s.Enter(callee, st)
		fx := &s.Fns[callee]
		if !fx.ExitSeen {
			continue
		}
		if !ok {
			cont, ok = s.Clone(&fx.Exit), true
		} else {
			s.Join(&cont, &fx.Exit)
		}
	}
	return cont, ok
}
