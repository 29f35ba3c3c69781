package analysis

import (
	"fmt"
	"sort"
	"strings"

	"threadfuser/internal/cfg"
	"threadfuser/internal/core"
	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
	"threadfuser/internal/staticlock"
	"threadfuser/internal/staticmem"
	"threadfuser/internal/staticsimt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// Oracle registers one static oracle with every consumer that cross-checks
// it against replay: its lint pass, its check property and its tfstatic mode
// all come from this entry, so each soundness comparison exists once.
type Oracle struct {
	// Pass is the lint pass id, Prop the check property id, and Mode the
	// tfstatic (and /v1/static) mode.
	Pass, Prop, Mode string
	// PassDesc and PropDesc are the one-line descriptions tflint -list and
	// tfcheck -list print.
	PassDesc, PropDesc string
	// Replays reports whether Verify reads VerifyInput.Report. An oracle
	// that compares only against trace facts is verified once per trace,
	// not once per replay configuration.
	Replays bool
	// Verify compares the oracle's predictions for in.Prog against the
	// dynamic facts. Soundness violations are SevError, hazards such as
	// divergent acquires SevWarning, precision gaps and the closing summary
	// line SevInfo. Callers run MatchProgram first.
	Verify func(in *VerifyInput) []Finding
	// analyze runs the oracle alone over a program (see RunStatic).
	analyze func(prog *ir.Program, budget int) StaticResult
}

// VerifyInput is what an oracle is verified against.
type VerifyInput struct {
	Prog  *ir.Program
	Trace *trace.Trace
	// Report is the replay at one configuration; nil for an oracle whose
	// Replays is false.
	Report *core.Report
	// Formation is the warp formation Report was replayed under.
	Formation warp.Formation
	// Graphs are the trace's DCFGs; a static branch whose block never ran
	// carries no dynamic evidence either way.
	Graphs map[uint32]*cfg.DCFG
}

// oracles is the registry, in lint pass order.
var oracles = []Oracle{
	{
		Pass: "static", Prop: "staticuniform", Mode: "simt",
		PassDesc: "static uniformity oracle vs dynamic replay: soundness violations and precision gaps",
		PropDesc: "no branch the static oracle classifies warp-uniform ever records a divergence",
		Replays:  true,
		Verify:   verifyUniform,
		analyze: func(p *ir.Program, budget int) StaticResult {
			return StaticResult{SIMT: staticsimt.Analyze(p, staticsimt.Options{MeldBudget: budget})}
		},
	},
	{
		Pass: "staticlock", Prop: "staticlockset", Mode: "locks",
		PassDesc: "static concurrency oracle vs dynamic replay: lockset/lock-order soundness, precision gaps, divergent acquires",
		PropDesc: "every dynamic lockset race and lock-order cycle has a covering static candidate",
		Verify:   verifyLocks,
		analyze: func(p *ir.Program, _ int) StaticResult {
			return StaticResult{Locks: staticlock.Analyze(p)}
		},
	},
	{
		Pass: "staticmem", Prop: "staticcoalesce", Mode: "mem",
		PassDesc: "static memory oracle vs dynamic replay: per-site transaction-bound soundness and scattered-prediction precision gaps",
		PropDesc: "no replayed memory site exceeds its static transactions-per-warp bound or contradicts its segment claim",
		Replays:  true,
		Verify:   verifyMem,
		analyze: func(p *ir.Program, _ int) StaticResult {
			return StaticResult{Mem: staticmem.Analyze(p)}
		},
	},
}

// Oracles returns the static oracle registry in lint pass order.
func Oracles() []Oracle { return oracles }

// StaticResult is one static oracle's result for a program: the field of
// the oracle's mode is set and the others are nil.
type StaticResult struct {
	SIMT  *staticsimt.Result `json:"simt,omitempty"`
	Locks *staticlock.Result `json:"locks,omitempty"`
	Mem   *staticmem.Result  `json:"mem,omitempty"`
}

// Mode names the oracle whose result r holds, or "" when it holds none.
func (r *StaticResult) Mode() string {
	switch {
	case r.SIMT != nil:
		return "simt"
	case r.Locks != nil:
		return "locks"
	case r.Mem != nil:
		return "mem"
	}
	return ""
}

// StaticOracle returns the oracle registered under mode and checks budget,
// the uniformity oracle's meld budget: 0 selects the O3 budget and a
// negative budget is an error. tfstatic reports an error here as a usage
// error and /v1/static as a 400, so both apply the same rules.
func StaticOracle(mode string, budget int) (*Oracle, error) {
	if budget < 0 {
		return nil, fmt.Errorf("meld budget %d is negative (0 selects the O3 budget)", budget)
	}
	var modes []string
	for i := range oracles {
		if oracles[i].Mode == mode {
			return &oracles[i], nil
		}
		modes = append(modes, oracles[i].Mode)
	}
	return nil, fmt.Errorf("unknown static mode %q (want one of %s)", mode, strings.Join(modes, ", "))
}

// RunStatic runs the static oracle registered under mode over prog, an
// instantiated (O1) program, after optimizing it to level. It is the one
// mode dispatch that tfstatic and /v1/static share.
func RunStatic(prog *ir.Program, level opt.Level, mode string, budget int) (*StaticResult, error) {
	o, err := StaticOracle(mode, budget)
	if err != nil {
		return nil, err
	}
	if level != opt.O1 {
		prog = opt.Apply(prog, level)
	}
	res := o.analyze(prog, budget)
	return &res, nil
}

// MatchProgram checks that prog describes the traced binary: the same
// functions, blocks and per-block instruction counts. Every static-vs-dynamic
// comparison keys by those positions, so a mismatch makes it meaningless;
// the error names the first disagreement.
func MatchProgram(prog *ir.Program, t *trace.Trace) error {
	if len(prog.Funcs) != len(t.Funcs) {
		return fmt.Errorf("program has %d function(s), trace has %d", len(prog.Funcs), len(t.Funcs))
	}
	for id, f := range prog.Funcs {
		if f.Name != t.Funcs[id].Name {
			return fmt.Errorf("function %d is %q in the program but %q in the trace", id, f.Name, t.Funcs[id].Name)
		}
		if len(f.Blocks) != len(t.Funcs[id].Blocks) {
			return fmt.Errorf("function %q has %d block(s) in the program but %d in the trace", f.Name, len(f.Blocks), len(t.Funcs[id].Blocks))
		}
		for bi, b := range f.Blocks {
			if len(b.Instrs) != int(t.Funcs[id].Blocks[bi].NInstr) {
				return fmt.Errorf("%s.b%d has %d instruction(s) in the program but %d in the trace", f.Name, bi, len(b.Instrs), t.Funcs[id].Blocks[bi].NInstr)
			}
		}
	}
	return nil
}

// oraclePass is the lint face of an Oracle. It needs Options.Prog
// (RunSession skips it for trace-only inputs), refuses a program that does
// not describe the trace, and otherwise reports Verify's findings against
// the run's memoized lock-free replay.
type oraclePass struct{ o *Oracle }

func (p oraclePass) ID() string   { return p.o.Pass }
func (p oraclePass) Desc() string { return p.o.PassDesc }

func (p oraclePass) Run(ctx *Context) error {
	if err := MatchProgram(ctx.Opts.Prog, ctx.Trace); err != nil {
		f := finding(p.o.Pass, SevWarning)
		f.Message = fmt.Sprintf("attached program does not match the trace symbol table (%s); static comparison skipped", err)
		ctx.add(f)
		return nil
	}
	in := &VerifyInput{Prog: ctx.Opts.Prog, Trace: ctx.Trace, Formation: ctx.Opts.Formation, Graphs: ctx.Graphs}
	if p.o.Replays {
		var err error
		if in.Report, err = ctx.Report(false); err != nil {
			return err
		}
	}
	for _, f := range p.o.Verify(in) {
		ctx.add(f)
	}
	return nil
}

// maxPrecisionReports bounds each oracle's precision-gap findings; the rest
// fold into one count.
const maxPrecisionReports = 20

// verifier accumulates one oracle's findings.
type verifier struct {
	pass   string
	out    []Finding
	errors int
	gaps   int
}

// add appends a finding and returns it for further fields; the pointer is
// valid until the next add.
func (v *verifier) add(sev Severity, fn string, block int32, format string, args ...any) *Finding {
	f := finding(v.pass, sev)
	f.Function, f.Block = fn, block
	f.Message = fmt.Sprintf(format, args...)
	if sev == SevError {
		v.errors++
	}
	v.out = append(v.out, f)
	return &v.out[len(v.out)-1]
}

// gap counts one precision gap and reports whether it is still under the
// cap and so should be reported.
func (v *verifier) gap() bool {
	v.gaps++
	return v.gaps <= maxPrecisionReports
}

// done closes the findings with the suppressed-gap count, if any, and the
// summary line.
func (v *verifier) done(format string, args ...any) []Finding {
	if v.gaps > maxPrecisionReports {
		v.add(SevInfo, "", -1, "%d further precision gap(s) suppressed", v.gaps-maxPrecisionReports)
	}
	v.add(SevInfo, "", -1, format, args...)
	return v.out
}

// verifyUniform checks the static SIMT oracle (internal/staticsimt). A
// divergent branch the oracle called uniform, or never classified, is a
// soundness bug; a branch it called divergent that executed without ever
// splitting a warp is a precision gap, the expected cost of a conservative
// dataflow. Replay rows name functions; a name resolves to its first
// symbol-table id, as core.Report's name index does.
func verifyUniform(in *VerifyInput) []Finding {
	v := &verifier{pass: "static"}
	res := staticsimt.Analyze(in.Prog, staticsimt.Options{})
	ids := make(map[string]uint32, len(in.Trace.Funcs))
	for id := len(in.Trace.Funcs) - 1; id >= 0; id-- {
		ids[in.Trace.Funcs[id].Name] = uint32(id)
	}

	type key struct{ fn, block uint32 }
	diverged := map[key]bool{}
	for _, br := range in.Report.Branches {
		if br.Divergences == 0 {
			continue
		}
		fn, ok := ids[br.Func]
		if !ok {
			continue
		}
		diverged[key{fn, br.Block}] = true
		cls, ok := res.Class(fn, br.Block)
		switch {
		case !ok:
			v.add(SevError, br.Func, int32(br.Block), "oracle soundness bug: branch diverged %d time(s) at runtime but has no static classification", br.Divergences)
		case cls.Uniform:
			f := v.add(SevError, br.Func, int32(br.Block), "oracle soundness bug: branch classified warp-uniform but diverged %d time(s) at runtime (%d lane(s) idled)", br.Divergences, br.LanesOff)
			f.Details = map[string]string{"divergences": fmt.Sprintf("%d", br.Divergences)}
		}
	}

	for fi := range res.Funcs {
		fr := &res.Funcs[fi]
		g := in.Graphs[fr.ID]
		if g == nil {
			continue
		}
		for bi := range fr.Branches {
			b := &fr.Branches[bi]
			if b.Uniform || diverged[key{fr.ID, b.Block}] {
				continue
			}
			if int(b.Block) >= g.NBlocks || len(g.Succs(int32(b.Block))) == 0 {
				continue // never executed: no dynamic evidence either way
			}
			if v.gap() {
				causes := strings.Join(b.Causes, "|")
				f := v.add(SevInfo, fr.Name, int32(b.Block), "precision gap: %s classified divergent (%s) but never split a warp in this replay", b.Kind, causes)
				f.Details = map[string]string{"causes": causes}
			}
		}
	}
	return v.done("static oracle: %d uniform / %d divergent branch(es), %d meld candidate(s), %d precision gap(s) in this replay",
		res.UniformBranches, res.DivergentBranches, res.Meldable, v.gaps)
}

// verifyLocks checks the static concurrency oracle (internal/staticlock)
// against the trace's dynamic lockset races and lock order, which depend on
// the trace alone. A race, lock-order edge or deadlock cycle with no
// covering static candidate is a soundness bug; a static candidate the
// trace never confirmed is a precision gap. Acquires under divergent control
// are hazards: SIMT serializes them, and a spinning critical section there
// is the livelock shape.
func verifyLocks(in *VerifyInput) []Finding {
	v := &verifier{pass: "staticlock"}
	sr := staticlock.Analyze(in.Prog)
	races := DynamicRaceAccesses(in.Trace)
	order := DynamicLockOrder(in.Trace)
	fname := func(fn uint32) string {
		if int(fn) < len(in.Prog.Funcs) {
			return in.Prog.Funcs[fn].Name
		}
		return fmt.Sprintf("f%d", fn)
	}

	// Every racy address must reach a static race candidate, and every
	// access seen with an empty lockset must itself be one.
	confirmedRace := map[int]bool{} // access classes with dynamic evidence
	for _, ra := range races {
		candidate := false
		for _, acc := range ra.Accesses {
			ai, ok := sr.AccessAt(acc.Func, acc.Block, acc.Instr)
			if !ok {
				f := v.add(SevError, fname(acc.Func), int32(acc.Block), "oracle soundness bug: dynamic access to racy addr 0x%x at instr %d has no static access entry", ra.Addr, acc.Instr)
				f.Addr = ra.Addr
				continue
			}
			sa := &sr.Accesses[ai]
			if sa.Class >= 0 {
				confirmedRace[sa.Class] = true
			}
			if sa.Candidate {
				candidate = true
			}
			if acc.Unlocked && !sa.Candidate {
				shapes := "unclassified"
				if sa.Class >= 0 && sa.Class < len(sr.AccessClasses) {
					shapes = strings.Join(sr.AccessClasses[sa.Class].Shapes, ", ")
				}
				f := v.add(SevError, fname(acc.Func), int32(acc.Block), "oracle soundness bug: access %s i%d touched racy addr 0x%x with no lock held, but its static class (%s, kind %s) is not a race candidate",
					sa.Shape, acc.Instr, ra.Addr, shapes, sa.Kind)
				f.Addr = ra.Addr
			}
		}
		if !candidate {
			f := v.add(SevError, "", -1, "oracle soundness bug: addr 0x%x raced in the replay but no access reaching it is a static race candidate", ra.Addr)
			f.Addr = ra.Addr
		}
	}

	// Every dynamic lock-order edge must exist between the static shapes of
	// its witness acquire sites.
	for _, e := range order.Edges {
		fi, okF := sr.SiteAt(e.FromSite.Func, e.FromSite.Block, e.FromSite.Instr)
		ti, okT := sr.SiteAt(e.ToSite.Func, e.ToSite.Block, e.ToSite.Instr)
		if !okF || !okT {
			v.add(SevError, fname(e.ToSite.Func), int32(e.ToSite.Block), "oracle soundness bug: dynamic lock-order edge 0x%x->0x%x has acquire sites missing from the static site table", e.From, e.To)
			continue
		}
		from, to := sr.Sites[fi].Shape, sr.Sites[ti].Shape
		if !sr.HasEdge(from, to) {
			v.add(SevError, fname(e.ToSite.Func), int32(e.ToSite.Block), "oracle soundness bug: replay acquired 0x%x (shape %s) while holding 0x%x (shape %s) but the static order graph has no such edge",
				e.To, to, e.From, from)
		}
	}

	// Every dynamic deadlock cycle's lock classes, taken from the acquire
	// sites of its in-cycle edges, must be covered by one static cycle.
	confirmedCycle := map[string]bool{} // class-set keys with dynamic evidence
	for _, c := range order.Cycles {
		inCycle := map[uint64]bool{}
		for _, a := range c.Addrs {
			inCycle[a] = true
		}
		clsSet := map[int]bool{}
		broken := false
		for _, e := range order.Edges {
			if !inCycle[e.From] || !inCycle[e.To] {
				continue
			}
			for _, site := range []LockSite{e.FromSite, e.ToSite} {
				si, ok := sr.SiteAt(site.Func, site.Block, site.Instr)
				if !ok {
					broken = true
					continue
				}
				if ci, ok := sr.LockClassOf(sr.Sites[si].Shape); ok {
					clsSet[ci] = true
				} else {
					broken = true
				}
			}
		}
		classes := make([]int, 0, len(clsSet))
		for ci := range clsSet {
			classes = append(classes, ci)
		}
		sort.Ints(classes)
		if broken || !sr.CycleCovering(classes) {
			f := v.add(SevError, "", -1, "oracle soundness bug: dynamic lock-order cycle over %d lock(s) (classes %v) has no covering static cycle candidate", len(c.Addrs), classes)
			f.Addr = c.Addrs[0]
			continue
		}
		confirmedCycle[fmt.Sprint(classes)] = true
	}

	for i := range sr.Sites {
		s := &sr.Sites[i]
		if s.Release || !s.Divergent || s.Unreachable {
			continue
		}
		f := v.add(SevWarning, s.FuncName, int32(s.Block), "lock %s acquired under divergent control at instr %d: the warp serializes here; livelock hazard if the critical section spins", s.Shape, s.Instr)
		f.Details = map[string]string{"shape": s.Shape}
	}

	for ci := range sr.AccessClasses {
		ac := &sr.AccessClasses[ci]
		if ac.Candidate && !confirmedRace[ci] && v.gap() {
			v.add(SevInfo, "", -1, "precision gap: static race candidate {%s} never raced in this replay", strings.Join(ac.Shapes, ", "))
		}
	}
	for i := range sr.Cycles {
		c := &sr.Cycles[i]
		if !confirmedCycle[fmt.Sprint(c.Classes)] && v.gap() {
			v.add(SevInfo, "", -1, "precision gap: static cycle candidate over {%s} never deadlocked in this replay", strings.Join(c.Shapes, ", "))
		}
	}
	return v.done("static concurrency oracle: %d acquire(s) (%d divergent), %d lock class(es), %d order edge(s), %d cycle candidate(s), %d race candidate(s); %d racy addr(s) and %d cycle(s) dynamic, %d precision gap(s)",
		sr.Acquires, sr.DivergentAcquires, len(sr.LockClasses), len(sr.Edges), sr.CycleCandidates, sr.RaceCandidates, len(races), len(order.Cycles), v.gaps)
}

// verifyMem checks the static memory oracle (internal/staticmem) against
// the replay's per-site coalescing histograms. A site whose worst execution
// exceeds its static transactions-per-warp bound, or whose observed segment
// contradicts its segment claim, is a soundness bug; a site classified
// scattered whose executions all stayed within the fully-coalesced envelope
// is a precision gap.
func verifyMem(in *VerifyInput) []Finding {
	v := &verifier{pass: "staticmem"}
	sm := staticmem.Analyze(in.Prog)
	rep := in.Report
	contiguous := in.Formation == warp.RoundRobin

	worst := map[int]uint64{} // executed static site -> worst transactions
	for i := range rep.MemSites {
		d := &rep.MemSites[i]
		si, ok := sm.SiteAt(d.FuncID, d.Block, d.Instr)
		if !ok {
			v.add(SevError, d.Func, int32(d.Block), "oracle soundness bug: replay accessed memory at instr %d but the static site table has no entry", d.Instr)
			continue
		}
		s := &sm.Sites[si]
		worst[si] = d.MaxTx
		if bound := s.TxBound(rep.WarpSize, contiguous); d.MaxTx > uint64(bound) {
			f := v.add(SevError, d.Func, int32(d.Block), "oracle soundness bug: site i%d classified %s (stride %+d, addr %s) is bounded at %d tx/warp%d but a replay execution needed %d",
				d.Instr, s.Class, s.Stride, s.Shape, bound, rep.WarpSize, d.MaxTx)
			f.Details = map[string]string{"class": s.Class, "shape": s.Shape}
		}
		switch {
		case s.Segment == staticmem.SegmentStack && d.HeapTx > 0:
			v.add(SevError, d.Func, int32(d.Block), "oracle soundness bug: site i%d claimed stack-segment (addr %s) but the replay observed %d heap transaction(s)",
				d.Instr, s.Shape, d.HeapTx)
		case s.Segment == staticmem.SegmentOther && d.StackTx > 0:
			v.add(SevError, d.Func, int32(d.Block), "oracle soundness bug: site i%d claimed heap/global-segment (addr %s) but the replay observed %d stack transaction(s)",
				d.Instr, s.Shape, d.StackTx)
		}
	}

	// A scattered prediction is unconfirmed when every execution stayed
	// within what a fully-coalesced classification (stride == access size,
	// no divergence widening) would have bounded.
	for si := range sm.Sites {
		s := &sm.Sites[si]
		maxTx, ran := worst[si]
		if s.Class != staticmem.ClassScattered || s.Unreachable || !ran {
			continue
		}
		hyp := *s
		hyp.Class = staticmem.ClassCoalesced
		hyp.StrideKnown = true
		hyp.Stride = int64(s.Size)
		hyp.Divergent = false
		if maxTx <= uint64(hyp.TxBound(rep.WarpSize, contiguous)) && v.gap() {
			v.add(SevInfo, "", -1, "precision gap: %s b%d i%d classified scattered (addr %s) but every replay execution stayed within the coalesced envelope (worst %d tx)",
				s.FuncName, s.Block, s.Instr, s.Shape, maxTx)
		}
	}
	return v.done("static memory oracle: %d site(s): %d broadcast, %d coalesced, %d strided, %d scattered (%d divergent); %d meld(s) vetoed; %d executed dynamically, %d soundness violation(s), %d precision gap(s)",
		len(sm.Sites), sm.Broadcast, sm.Coalesced, sm.Strided, sm.Scattered, sm.DivergentSites, sm.MeldsRejectedMem, len(rep.MemSites), v.errors, v.gaps)
}
