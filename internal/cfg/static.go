package cfg

import (
	"threadfuser/internal/ir"
)

// FromFunction builds a function's static CFG in DCFG form (including the
// virtual exit block). The lockstep hardware oracle (internal/hwsim) uses
// static graphs because real SIMT hardware reconverges at compiler-known
// post-dominators, whereas the analyzer reconstructs the graph dynamically
// from traces.
func FromFunction(f *ir.Function) *DCFG {
	g := newDCFG(uint32(f.ID), len(f.Blocks))
	g.observeEntry(0, 0)
	for _, b := range f.Blocks {
		from := int32(b.ID)
		term := b.Terminator()
		switch term.Op {
		case ir.OpJmp:
			g.addEdge(from, int32(term.Target))
		case ir.OpJcc:
			g.addEdge(from, int32(term.Target))
			g.addEdge(from, int32(term.Fall))
		case ir.OpSwitch:
			for _, t := range term.Targets {
				g.addEdge(from, int32(t))
			}
		case ir.OpCall, ir.OpCallR:
			// Per-function graphs treat a call as flowing to its
			// continuation; the callee has its own graph.
			g.addEdge(from, int32(term.Fall))
		case ir.OpRet:
			g.addEdge(from, g.ExitNode())
		}
	}
	g.sortEdges()
	return g
}

// FromProgram builds static CFGs for every function of a program, keyed by
// function id.
func FromProgram(p *ir.Program) map[uint32]*DCFG {
	out := make(map[uint32]*DCFG, len(p.Funcs))
	for _, f := range p.Funcs {
		out[uint32(f.ID)] = FromFunction(f)
	}
	return out
}
