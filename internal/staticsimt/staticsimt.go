// Package staticsimt is ThreadFuser's static SIMT oracle: a forward
// dataflow framework over the IR that predicts, before any trace exists,
// which branches can split warps. Where internal/core derives every
// divergence number from replaying dynamic traces, this package answers the
// same question from the program text alone — the DARM-style compiler view
// (Saumya et al.) of the hardware contract the lockstep oracle executes.
//
// The analysis runs a uniformity lattice (uniform ⊑ thread-divergent, with
// the divergence *cause* tracked as a bitmask) to a least fixpoint over the
// whole program:
//
//   - seeds: the TID register, the per-thread stack pointer, the entry
//     function's initial registers (per-thread ArgFn state), and memory
//     loads (other threads' stores are invisible statically);
//   - transfer: per-instruction joins through registers, flags and tracked
//     SP-relative stack slots; calls propagate caller state into callee
//     entries and callee exit state back to continuations;
//   - control: a sync-dependence taint — every definition inside a divergent
//     branch's influence region (the blocks reachable from its successors
//     without passing its static immediate post-dominator) is marked
//     control-divergent, so values that merely *merge* differently across
//     divergent paths are never called uniform.
//
// Every Jcc/Switch (and indirect-call selector) is then classified
// warp-uniform or potentially divergent. The classification is sound with
// respect to the dynamic replay: a branch classified uniform never records a
// warp split on any built-in workload (internal/check's "staticuniform"
// invariant enforces this), while divergent classifications may be
// conservative — the precision gap tflint's "static" pass reports.
//
// On top of the classification, the package delimits each divergent
// branch's reconvergence region via internal/ipdom over cfg.FromFunction
// static graphs, and runs a DARM-style matcher over divergent diamonds:
// arms that are isomorphic modulo register renaming are meldable, and arms
// that are speculation-safe but too large for opt.IfConvert's O3 budget are
// flagged as if-convertible beyond budget.
package staticsimt

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
)

// Uniformity is the lattice value of one register, flag set, or stack slot:
// a bitmask of divergence causes. The zero value (no causes) is warp-uniform;
// the join is bitwise OR, so causes accumulate monotonically toward the
// all-causes top.
type Uniformity uint16

const (
	// Uniform is the lattice bottom: provably equal across the co-active
	// threads of any warp.
	Uniform Uniformity = 0
	// FromTID marks values derived from the thread-id register.
	FromTID Uniformity = 1 << iota
	// FromSP marks values derived from the stack pointer, which points into
	// a per-thread stack segment.
	FromSP
	// FromArgs marks values derived from the entry function's initial
	// registers, which the per-thread ArgFn sets up and the static view
	// cannot see.
	FromArgs
	// FromMemory marks values loaded from untracked memory (shared data, or
	// stack slots the analysis lost track of).
	FromMemory
	// FromControl marks values defined under divergent control — the
	// sync-dependence taint applied inside divergent influence regions.
	FromControl
	// FromCall marks values clobbered by an indirect call whose callee set
	// diverges across threads.
	FromCall
)

// Divergent reports whether the value carries any divergence cause.
func (u Uniformity) Divergent() bool { return u != Uniform }

// causeNames is in bit order; Causes and String follow it.
var causeNames = []struct {
	bit  Uniformity
	name string
}{
	{FromTID, "tid"},
	{FromSP, "sp"},
	{FromArgs, "args"},
	{FromMemory, "memory"},
	{FromControl, "control"},
	{FromCall, "call"},
}

// Causes lists the divergence causes by name, in a fixed order.
func (u Uniformity) Causes() []string {
	if u == Uniform {
		return nil
	}
	var out []string
	for _, c := range causeNames {
		if u&c.bit != 0 {
			out = append(out, c.name)
		}
	}
	return out
}

func (u Uniformity) String() string {
	if u == Uniform {
		return "uniform"
	}
	return "divergent(" + strings.Join(u.Causes(), "|") + ")"
}

// Options configure an analysis.
type Options struct {
	// MeldBudget is the per-side instruction budget separating "the O3
	// optimizer already flattens this" from "if-convertible beyond budget"
	// in meld findings. 0 uses opt's O3 budget.
	MeldBudget int
	// MeldMem, when non-nil, supplies a per-function memory-legality check
	// for the meld matcher: candidates whose arms the returned
	// opt.MeldMemCheck vetoes are dropped from Melds and counted in
	// Result.MeldsRejectedMem. This is how the static memory oracle
	// (internal/staticmem) keeps DARM-style melding from flattening a
	// diamond whose arms are individually coalesced.
	MeldMem func(fn uint32) opt.MeldMemCheck
}

// Branch is the classification of one multi-way terminator (jcc, switch, or
// an indirect call's selector).
type Branch struct {
	Block uint32 `json:"block"`
	// Kind is "jcc", "switch" or "callr".
	Kind string `json:"kind"`
	// Uniform reports the sound classification: true means no warp can ever
	// split at this terminator.
	Uniform bool `json:"uniform"`
	// Causes names the divergence sources when not uniform, in a fixed
	// order: tid, sp, args, memory, control, call.
	Causes []string `json:"causes,omitempty"`
	// Unreachable marks terminators in blocks the dataflow never reached;
	// they trivially cannot diverge.
	Unreachable bool `json:"unreachable,omitempty"`
	// Reconverge is the static immediate post-dominator — the block where a
	// split warp would reconverge (the function's block count denotes the
	// virtual exit).
	Reconverge int32 `json:"reconverge"`
	// RegionBlocks/RegionInstrs delimit a divergent branch's influence
	// region: the blocks reachable from its successors without passing the
	// reconvergence point, and their static instruction total.
	RegionBlocks []uint32 `json:"region_blocks,omitempty"`
	RegionInstrs int      `json:"region_instrs,omitempty"`
}

// Meld is one DARM-style opportunity at a divergent diamond.
type Meld struct {
	Block uint32 `json:"block"`
	// Kind is "isomorphic-arms" (the arms are identical modulo register
	// renaming and could execute as one melded region) or
	// "if-convertible-over-budget" (speculation-safe arms the O3 budget
	// rejects purely on size).
	Kind       string `json:"kind"`
	ThenBlock  uint32 `json:"then_block"`
	ElseBlock  uint32 `json:"else_block"`
	ThenInstrs int    `json:"then_instrs"`
	ElseInstrs int    `json:"else_instrs"`
	Reconverge int32  `json:"reconverge"`
	// SavedIssues estimates the warp issue slots reclaimed per divergent
	// traversal: the shorter arm's instructions no longer issue as a
	// separate serialized pass (DARM's melding saving bound).
	SavedIssues int `json:"saved_issues"`
	// NeedBudget is the per-side budget that would let opt.IfConvertStores
	// flatten the diamond (if-convertible-over-budget only).
	NeedBudget int `json:"need_budget,omitempty"`
}

// FuncResult is the oracle's verdict for one function.
type FuncResult struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	// Unreachable marks functions with no call path from the entry; they
	// are analyzed standalone under a worst-case entry state.
	Unreachable bool `json:"unreachable,omitempty"`
	// Branches lists every jcc/switch/callr terminator in block order.
	Branches []Branch `json:"branches,omitempty"`
	// Melds lists melding opportunities at divergent diamonds.
	Melds []Meld `json:"melds,omitempty"`
	// MemUniform/MemDivergent count static memory operands by the
	// uniformity of their effective address — the static analogue of the
	// coalescing profile (a divergent address is where transactions fan
	// out).
	MemUniform   int `json:"mem_uniform"`
	MemDivergent int `json:"mem_divergent"`
	// Influenced lists the blocks inside some divergent branch's influence
	// region — code that can execute with a split warp.
	Influenced []uint32 `json:"influenced,omitempty"`
	// DivergentContext marks functions reachable through a call made under
	// divergent control: a direct call from an influenced block, any
	// indirect call with a divergent selector, or transitively through such
	// a callee. Every instruction in them may run with a split warp even if
	// none of their own branches diverge.
	DivergentContext bool `json:"divergent_context,omitempty"`
}

// Result is the static oracle's projection for one program.
type Result struct {
	Program string       `json:"program"`
	Funcs   []FuncResult `json:"funcs"`
	// Totals across all functions.
	UniformBranches   int `json:"uniform_branches"`
	DivergentBranches int `json:"divergent_branches"`
	Meldable          int `json:"meldable"`
	// MeldsRejectedMem counts meld candidates the Options.MeldMem oracle
	// vetoed (zero when no oracle was supplied).
	MeldsRejectedMem int `json:"melds_rejected_mem,omitempty"`
	// StackEscapes reports that some stack address was stored to memory,
	// which disables stack-slot tracking program-wide.
	StackEscapes bool `json:"stack_escapes,omitempty"`

	index map[branchKey]*Branch
}

type branchKey struct {
	fn    uint32
	block uint32
}

// Class returns the classification of the terminator of the given block, if
// it is a jcc/switch/callr. Not safe for concurrent first use.
func (r *Result) Class(fn, block uint32) (*Branch, bool) {
	if r.index == nil {
		r.index = make(map[branchKey]*Branch)
		for fi := range r.Funcs {
			fr := &r.Funcs[fi]
			for bi := range fr.Branches {
				r.index[branchKey{fr.ID, fr.Branches[bi].Block}] = &fr.Branches[bi]
			}
		}
	}
	b, ok := r.index[branchKey{fn, block}]
	return b, ok
}

// Analyze runs the static oracle over a program. The program must be valid
// (ir.Validate); workloads and opt transforms only produce valid programs.
func Analyze(p *ir.Program, opts Options) *Result {
	if opts.MeldBudget == 0 {
		opts.MeldBudget = opt.IfBudget(opt.O3)
	}
	a := newAnalysis(p, opts)
	// Functions with no call path from the entry are classified standalone
	// under the all-divergent worst case.
	a.Run(p, entrySeed(), worstState)
	return a.result()
}

// Render writes the human-readable report. Verbose lists every branch;
// the default lists only divergent branches and meld findings.
func (r *Result) Render(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "%s: %d uniform / %d divergent branch(es), %d meld candidate(s)\n",
		r.Program, r.UniformBranches, r.DivergentBranches, r.Meldable)
	for fi := range r.Funcs {
		fr := &r.Funcs[fi]
		shown := false
		header := func() {
			if !shown {
				note := ""
				if fr.Unreachable {
					note = " (unreachable: worst-case entry)"
				}
				fmt.Fprintf(w, "  %s%s:\n", fr.Name, note)
				shown = true
			}
		}
		for bi := range fr.Branches {
			b := &fr.Branches[bi]
			if b.Uniform && !verbose {
				continue
			}
			header()
			switch {
			case b.Unreachable:
				fmt.Fprintf(w, "    b%-3d %-7s unreachable\n", b.Block, b.Kind)
			case b.Uniform:
				fmt.Fprintf(w, "    b%-3d %-7s uniform\n", b.Block, b.Kind)
			default:
				fmt.Fprintf(w, "    b%-3d %-7s divergent (%s)  region %v (%d instrs), reconverges b%d\n",
					b.Block, b.Kind, strings.Join(b.Causes, "|"), b.RegionBlocks, b.RegionInstrs, b.Reconverge)
			}
		}
		for mi := range fr.Melds {
			m := &fr.Melds[mi]
			header()
			switch m.Kind {
			case "isomorphic-arms":
				fmt.Fprintf(w, "    b%-3d meld: arms b%d/b%d isomorphic modulo renaming (%d+%d instrs, ~%d issue slots/split reclaimable)\n",
					m.Block, m.ThenBlock, m.ElseBlock, m.ThenInstrs, m.ElseInstrs, m.SavedIssues)
			case "if-convertible-over-budget":
				fmt.Fprintf(w, "    b%-3d meld: diamond b%d/b%d if-convertible with budget %d (O3 budget %d)\n",
					m.Block, m.ThenBlock, m.ElseBlock, m.NeedBudget, opt.IfBudget(opt.O3))
			}
		}
		if verbose && (fr.MemUniform+fr.MemDivergent) > 0 {
			header()
			fmt.Fprintf(w, "    mem: %d uniform-address / %d divergent-address operand(s)\n", fr.MemUniform, fr.MemDivergent)
		}
	}
}

// sortResult imposes deterministic ordering on every slice of the result.
func sortResult(r *Result) {
	sort.Slice(r.Funcs, func(i, j int) bool { return r.Funcs[i].ID < r.Funcs[j].ID })
	for fi := range r.Funcs {
		fr := &r.Funcs[fi]
		sort.Slice(fr.Branches, func(i, j int) bool { return fr.Branches[i].Block < fr.Branches[j].Block })
		sort.Slice(fr.Melds, func(i, j int) bool {
			if fr.Melds[i].Block != fr.Melds[j].Block {
				return fr.Melds[i].Block < fr.Melds[j].Block
			}
			return fr.Melds[i].Kind < fr.Melds[j].Kind
		})
		for bi := range fr.Branches {
			b := &fr.Branches[bi]
			sort.Slice(b.RegionBlocks, func(i, j int) bool { return b.RegionBlocks[i] < b.RegionBlocks[j] })
		}
	}
}
