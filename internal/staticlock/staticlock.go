// Package staticlock is ThreadFuser's static concurrency oracle: an
// interprocedural forward dataflow over the IR that predicts, before any
// trace exists, the concurrency facts the dynamic passes measure — must-hold
// locksets at every memory access, a static lock-order graph with cycle
// candidates (the static twin of the deadlock pass), an escape/sharedness
// classification feeding static race candidates (the static twin of the
// Eraser lockset pass), and the cross-product finding only the combination
// with the SIMT oracle can make: lock acquires reachable under divergent
// control flow, which an SIMT execution serializes (and, for self-looping
// critical sections, can livelock).
//
// The contract mirrors staticsimt's: the static view over-approximates the
// dynamic one. Every dynamic lockset race maps into a static race-candidate
// class, and every dynamic lock-order cycle maps into a static cycle
// candidate (internal/analysis' "staticlock" pass and internal/check's
// "staticlockset" invariant enforce this); static-only candidates are the
// precision gap. Two assumptions scope the soundness claim and are checked
// dynamically rather than assumed silently: shared-world (entry arguments
// are identical across threads) and allocation-distinctness (addresses built
// from distinct argument roots do not alias). See DESIGN.md §13.
package staticlock

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"threadfuser/internal/graph"
	"threadfuser/internal/ir"
	"threadfuser/internal/staticsimt"
)

// Site is one static lock-op instruction with its converged symbolic lock
// address. Sites appear in program order; their index is the witness id used
// by Edges.
type Site struct {
	Func     uint32 `json:"func"`
	FuncName string `json:"func_name"`
	Block    uint32 `json:"block"`
	Instr    uint16 `json:"instr"`
	Release  bool   `json:"release,omitempty"`
	// Shape is the canonical symbolic address ("arg0+8*tid+16", "0x7f10",
	// or "?" for unknown).
	Shape string `json:"shape"`
	// Class indexes Result.LockClasses; -1 for sites in unreached blocks.
	Class int `json:"class"`
	// Divergent marks acquires reachable under divergent control: inside a
	// divergent branch's influence region, or anywhere in a function callable
	// with an already-split warp. SIMT execution serializes them; a
	// self-looping critical section under divergence is the PR 2 livelock
	// shape.
	Divergent bool `json:"divergent,omitempty"`
	// Unreachable marks sites in phantom functions or unreached blocks.
	Unreachable bool `json:"unreachable,omitempty"`
}

// Class is one alias class of symbolic lock addresses: shapes that may
// denote the same concrete lock word in some run.
type Class struct {
	Shapes []string `json:"shapes"`
	// Kind is "named" (one concrete address shared by all threads),
	// "tid-indexed" (a per-thread family that can still collide across
	// threads), "stack" (sp-rooted), or "unknown" (contains "?").
	Kind string `json:"kind"`
}

// Edge is one static lock-order edge: some path acquires To while From may
// be held. FromSite/ToSite index Result.Sites (the witness acquires).
type Edge struct {
	From     string `json:"from"`
	To       string `json:"to"`
	FromSite int    `json:"from_site"`
	ToSite   int    `json:"to_site"`
}

// Cycle is one static deadlock candidate: a strongly connected set of lock
// classes in the static lock-order graph.
type Cycle struct {
	Classes []int    `json:"classes"` // sorted LockClasses indices
	Shapes  []string `json:"shapes"`  // member shapes, for display
}

// Access is one static memory operand with its symbolic address and the
// must-hold lockset at that point.
type Access struct {
	Func     uint32 `json:"func"`
	FuncName string `json:"func_name"`
	Block    uint32 `json:"block"`
	Instr    uint16 `json:"instr"`
	Store    bool   `json:"store,omitempty"`
	Size     uint8  `json:"size"`
	Shape    string `json:"shape"`
	// Kind is "stack" (sp-rooted: thread-private), "lock-word" (the address
	// of a lock, excluded like the dynamic pass excludes lock words),
	// "thread-private" (tid-strided with stride >= access size), or
	// "shared".
	Kind string `json:"kind"`
	// Class indexes Result.AccessClasses; -1 for stack/lock-word accesses.
	Class int `json:"class"`
	// MustLocks is the sorted set of lock shapes certainly held here.
	MustLocks []string `json:"must_locks,omitempty"`
	// Candidate marks members of a race-candidate class: shareable,
	// written somewhere, and with no named lock held in common.
	Candidate   bool `json:"candidate,omitempty"`
	Divergent   bool `json:"divergent,omitempty"`
	Unreachable bool `json:"unreachable,omitempty"`
}

// AccessClass is one alias class of data addresses with its race verdict.
type AccessClass struct {
	Shapes []string `json:"shapes"`
	Kind   string   `json:"kind"` // as Class.Kind, plus "private" for non-colliding singletons
	// Candidate: some member is written and no named lock protects every
	// member — the static race candidate the dynamic Eraser pass refines.
	Candidate bool `json:"candidate,omitempty"`
	// CommonLocks is the named must-lockset shared by every member access
	// (empty for candidates).
	CommonLocks []string `json:"common_locks,omitempty"`
}

// Result is the static concurrency oracle's projection for one program.
type Result struct {
	Program       string        `json:"program"`
	Sites         []Site        `json:"sites,omitempty"`
	LockClasses   []Class       `json:"lock_classes,omitempty"`
	Edges         []Edge        `json:"edges,omitempty"`
	Cycles        []Cycle       `json:"cycles,omitempty"`
	Recursions    []int         `json:"recursions,omitempty"`    // acquire sites already possibly held
	BareReleases  []int         `json:"bare_releases,omitempty"` // releases of shapes not possibly held
	Accesses      []Access      `json:"accesses,omitempty"`
	AccessClasses []AccessClass `json:"access_classes,omitempty"`

	// Summary totals.
	Acquires          int `json:"acquires"`
	DivergentAcquires int `json:"divergent_acquires"`
	RaceCandidates    int `json:"race_candidates"`  // candidate access classes
	CycleCandidates   int `json:"cycle_candidates"` // == len(Cycles)

	siteIdx map[siteKey]int
	accIdx  map[siteKey]int
	lockCls map[string]int
	edgeSet map[[2]string]bool
}

// Analyze runs the static concurrency oracle over a program: the symbolic
// address fixpoint, the lockset fixpoint over the discovered shapes, the
// SIMT uniformity oracle for divergence context, then one profiling replay
// per reached block to assemble the report. The program must be valid
// (ir.Validate); workloads only produce valid programs.
func Analyze(p *ir.Program) *Result {
	sym := solveSymbolic(p)
	la := solveLocks(p, sym)
	ssr := staticsimt.Analyze(p, staticsimt.Options{})

	// Divergence context per function/block from the SIMT oracle.
	divCtx := make([]bool, len(p.Funcs))
	influenced := make([]map[uint32]bool, len(p.Funcs))
	for fi := range ssr.Funcs {
		fr := &ssr.Funcs[fi]
		if int(fr.ID) >= len(p.Funcs) {
			continue
		}
		divCtx[fr.ID] = fr.DivergentContext
		m := make(map[uint32]bool, len(fr.Influenced))
		for _, b := range fr.Influenced {
			m[b] = true
		}
		influenced[fr.ID] = m
	}

	r := &Result{
		Program: p.Name,
		siteIdx: map[siteKey]int{},
		accIdx:  map[siteKey]int{},
		lockCls: map[string]int{},
		edgeSet: map[[2]string]bool{},
	}

	edgeWit := map[[2]string]edgeWitness{}
	lockShapes := map[string]symval{} // reached lock-site shapes
	accShapes := map[string]symval{}

	for fi, f := range p.Funcs {
		sfx, lfx := &sym.Fns[fi], &la.Fns[fi]
		fid := uint32(f.ID)
		fname := f.Name
		for bi, b := range f.Blocks {
			reached := sfx.InSeen[bi] && lfx.InSeen[bi]
			divB := divCtx[fi] || (influenced[fi] != nil && influenced[fi][uint32(b.ID)])
			if !reached {
				// Keep the Sites table aligned with the witness numbering:
				// every lock op gets an entry, unreached ones with "?".
				for ii := range b.Instrs {
					in := &b.Instrs[ii]
					if _, rel, ok := in.LockOperand(); ok {
						r.siteIdx[siteKey{fid, uint32(b.ID), uint16(ii)}] = len(r.Sites)
						r.Sites = append(r.Sites, Site{
							Func: fid, FuncName: fname, Block: uint32(b.ID), Instr: uint16(ii),
							Release: rel, Shape: TopShape, Class: -1, Unreachable: true,
						})
					}
				}
				continue
			}
			symst := sfx.In[bi]
			lst := lfx.In[bi].clone()
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if o, rel, ok := in.LockOperand(); ok {
					v := lockShape(&symst, o)
					shape := v.shape()
					key := siteKey{fid, uint32(b.ID), uint16(ii)}
					siteI := len(r.Sites)
					r.siteIdx[key] = siteI
					r.Sites = append(r.Sites, Site{
						Func: fid, FuncName: fname, Block: uint32(b.ID), Instr: uint16(ii),
						Release: rel, Shape: shape, Divergent: divB, Unreachable: sfx.Phantom,
					})
					lockShapes[shape] = v
					if !rel {
						r.Acquires++
						if divB {
							r.DivergentAcquires++
						}
						for fromShape, e := range lst.may {
							if fromShape == shape && v.precise() {
								continue // same precise shape = recursion, not an order edge
							}
							ek := [2]string{fromShape, shape}
							w := edgeWitness{fromSite: e.witness, toSite: la.siteIdx[key]}
							if old, ok := edgeWit[ek]; !ok || w.fromSite < old.fromSite ||
								(w.fromSite == old.fromSite && w.toSite < old.toSite) {
								edgeWit[ek] = w
							}
						}
						if _, held := lst.may[shape]; held {
							r.Recursions = append(r.Recursions, siteI)
						}
						lst.acquire(shape, la.siteIdx[key])
					} else {
						if _, held := lst.may[shape]; v.precise() && !held {
							r.BareReleases = append(r.BareReleases, siteI)
						}
						lst.release(v, shape)
					}
				}
				if m, load, store := in.MemOperand(); load || store {
					av := addrOf(&symst, m)
					shape := av.shape()
					acc := Access{
						Func: fid, FuncName: fname, Block: uint32(b.ID), Instr: uint16(ii),
						Store: store, Size: m.Size, Shape: shape, Class: -1,
						MustLocks: sortedShapeKeys(lst.must),
						Divergent: divB, Unreachable: sfx.Phantom,
					}
					r.accIdx[siteKey{fid, uint32(b.ID), uint16(ii)}] = len(r.Accesses)
					r.Accesses = append(r.Accesses, acc)
					accShapes[shape] = av
				}
				if !in.Op.IsTerminator() {
					transferInstr(&symst, in)
				}
			}
		}
	}

	r.buildLockClasses(lockShapes)
	r.buildEdges(edgeWit)
	r.buildCycles()
	r.buildAccessClasses(lockShapes, accShapes)
	return r
}

func sortedShapeKeys(m map[string]int8) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// aliasable is the class-merge rule: two symbolic addresses may denote the
// same concrete word in some run. Unknown merges with everything. Two
// precise shapes alias only when their difference is a pure tid expression:
// a tid term (thread t's address equals thread t”s base), or a constant
// offset over a common nonzero tid stride (thread t's element equals thread
// t”s neighbor). Differences involving argument or sp roots are assumed
// distinct allocations (allocation-distinctness), and named shapes with
// distinct constants are distinct words (shared-world).
func aliasable(a, b symval) bool {
	if !a.precise() || !b.precise() {
		return true
	}
	d := symSub(a, b)
	for _, t := range d.terms {
		if t.root.kind != rootTID {
			return false
		}
	}
	if d.coeffOf(rootTID) != 0 {
		return true
	}
	if d.c == 0 {
		return true
	}
	return a.tidCoeff() != 0
}

// unionFind groups a sorted shape universe into alias classes. It returns
// the classes (each a sorted shape list, ordered by first member) and the
// shape→class index map.
func unionFind(shapes []string, vals map[string]symval) ([][]string, map[string]int) {
	parent := make([]int, len(shapes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			if ry < rx {
				rx, ry = ry, rx
			}
			parent[ry] = rx
		}
	}
	for i := 0; i < len(shapes); i++ {
		for j := i + 1; j < len(shapes); j++ {
			if aliasable(vals[shapes[i]], vals[shapes[j]]) {
				union(i, j)
			}
		}
	}
	groups := map[int][]string{}
	for i, s := range shapes {
		root := find(i)
		groups[root] = append(groups[root], s)
	}
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	classes := make([][]string, 0, len(roots))
	idx := map[string]int{}
	for ci, root := range roots {
		members := groups[root]
		sort.Strings(members)
		classes = append(classes, members)
		for _, s := range members {
			idx[s] = ci
		}
	}
	return classes, idx
}

func classKind(members []string, vals map[string]symval) string {
	named := true
	tid := false
	stack := false
	for _, s := range members {
		v := vals[s]
		if !v.precise() {
			return "unknown"
		}
		if !v.named() {
			named = false
		}
		if v.tidCoeff() != 0 {
			tid = true
		}
		if v.spRooted() {
			stack = true
		}
	}
	switch {
	case named:
		return "named"
	case tid:
		return "tid-indexed"
	case stack:
		return "stack"
	default:
		return "tid-indexed"
	}
}

func (r *Result) buildLockClasses(vals map[string]symval) {
	shapes := make([]string, 0, len(vals))
	for s := range vals {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	classes, idx := unionFind(shapes, vals)
	r.lockCls = idx
	for _, members := range classes {
		r.LockClasses = append(r.LockClasses, Class{Shapes: members, Kind: classKind(members, vals)})
	}
	for i := range r.Sites {
		s := &r.Sites[i]
		if ci, ok := idx[s.Shape]; ok {
			s.Class = ci
		} else {
			s.Class = -1 // unreached blocks: shape never entered the universe
		}
	}
}

// edgeWitness is the lexicographically-smallest (acquire-site, acquire-site)
// pair witnessing one shape edge.
type edgeWitness struct{ fromSite, toSite int32 }

func (r *Result) buildEdges(wit map[[2]string]edgeWitness) {
	keys := make([][2]string, 0, len(wit))
	for k := range wit {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		w := wit[k]
		r.edgeSet[k] = true
		r.Edges = append(r.Edges, Edge{From: k[0], To: k[1], FromSite: int(w.fromSite), ToSite: int(w.toSite)})
	}
}

func (r *Result) buildCycles() {
	n := len(r.LockClasses)
	if n == 0 || len(r.Edges) == 0 {
		return
	}
	succSet := make([]map[int]bool, n)
	selfEdge := make([]bool, n)
	for _, e := range r.Edges {
		cf, okF := r.lockCls[e.From]
		ct, okT := r.lockCls[e.To]
		if !okF || !okT {
			continue
		}
		if cf == ct {
			selfEdge[cf] = true
		}
		if succSet[cf] == nil {
			succSet[cf] = map[int]bool{}
		}
		succSet[cf][ct] = true
	}
	succs := make([][]int, n)
	for i, set := range succSet {
		for t := range set {
			succs[i] = append(succs[i], t)
		}
		sort.Ints(succs[i])
	}
	for _, scc := range graph.SCCs(succs) {
		sort.Ints(scc)
		if len(scc) < 2 {
			ci := scc[0]
			// A self-edge on a named class is recursion on one concrete
			// lock, not an order cycle; on any other class the members can
			// be distinct words acquired in opposite orders across threads.
			if !selfEdge[ci] || r.LockClasses[ci].Kind == "named" {
				continue
			}
		}
		c := Cycle{Classes: scc}
		for _, ci := range scc {
			c.Shapes = append(c.Shapes, r.LockClasses[ci].Shapes...)
		}
		sort.Strings(c.Shapes)
		r.Cycles = append(r.Cycles, c)
	}
	sort.Slice(r.Cycles, func(i, j int) bool {
		a, b := r.Cycles[i].Classes, r.Cycles[j].Classes
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	r.CycleCandidates = len(r.Cycles)
}

func (r *Result) buildAccessClasses(lockVals, accVals map[string]symval) {
	// Precise lock shapes, for the lock-word exclusion.
	preciseLock := map[string]bool{}
	for s, v := range lockVals {
		if v.precise() {
			preciseLock[s] = true
		}
	}

	// Classify each access; only "shared"-eligible shapes enter the class
	// universe (stack and lock-word accesses are excluded exactly like the
	// dynamic pass excludes SegStack and lock words).
	inUniverse := map[string]bool{}
	for i := range r.Accesses {
		a := &r.Accesses[i]
		v := accVals[a.Shape]
		switch {
		case v.precise() && v.spRooted():
			a.Kind = "stack"
		case v.precise() && preciseLock[a.Shape]:
			a.Kind = "lock-word"
		default:
			a.Kind = "shared"
			inUniverse[a.Shape] = true
		}
	}
	shapes := make([]string, 0, len(inUniverse))
	for s := range inUniverse {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	classes, idx := unionFind(shapes, accVals)

	// Per-class facts: max access size, any store, named must-lock
	// intersection over every member access.
	type classFacts struct {
		maxSize  uint8
		anyStore bool
		common   map[string]bool
		seen     bool
	}
	facts := make([]classFacts, len(classes))
	for i := range r.Accesses {
		a := &r.Accesses[i]
		ci, ok := idx[a.Shape]
		if !ok {
			continue
		}
		a.Class = ci
		f := &facts[ci]
		if a.Size > f.maxSize {
			f.maxSize = a.Size
		}
		if a.Store {
			f.anyStore = true
		}
		named := map[string]bool{}
		for _, ls := range a.MustLocks {
			if lv, ok := lockVals[ls]; ok && lv.named() {
				named[ls] = true
			}
		}
		if !f.seen {
			f.common = named
			f.seen = true
		} else {
			for ls := range f.common {
				if !named[ls] {
					delete(f.common, ls)
				}
			}
		}
	}

	for ci, members := range classes {
		f := &facts[ci]
		kind := classKind(members, accVals)
		// Shareable: two threads can reach the same word through this
		// class. A singleton precise shape with a tid stride covering its
		// widest access partitions the address space per thread.
		private := false
		if len(members) == 1 {
			v := accVals[members[0]]
			if v.precise() {
				if k := v.tidCoeff(); k != 0 && abs64(k) >= int64(f.maxSize) {
					private = true
				}
			}
		}
		ac := AccessClass{Shapes: members, Kind: kind}
		if private {
			ac.Kind = "private"
		} else {
			ac.CommonLocks = sortedSet(f.common)
			ac.Candidate = f.anyStore && len(ac.CommonLocks) == 0
		}
		if ac.Candidate {
			r.RaceCandidates++
		}
		r.AccessClasses = append(r.AccessClasses, ac)
	}
	for i := range r.Accesses {
		a := &r.Accesses[i]
		if a.Class >= 0 {
			ac := &r.AccessClasses[a.Class]
			a.Candidate = ac.Candidate
			if ac.Kind == "private" {
				a.Kind = "thread-private"
			}
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SiteAt returns the index of the lock site at (fn, block, instr) and
// whether one exists.
func (r *Result) SiteAt(fn, block uint32, instr uint16) (int, bool) {
	i, ok := r.siteIdx[siteKey{fn, block, instr}]
	return i, ok
}

// AccessAt returns the index of the memory access at (fn, block, instr) and
// whether one exists.
func (r *Result) AccessAt(fn, block uint32, instr uint16) (int, bool) {
	i, ok := r.accIdx[siteKey{fn, block, instr}]
	return i, ok
}

// HasEdge reports whether the static lock-order graph contains the shape
// edge from→to.
func (r *Result) HasEdge(from, to string) bool { return r.edgeSet[[2]string{from, to}] }

// LockClassOf returns the lock alias class of a shape.
func (r *Result) LockClassOf(shape string) (int, bool) {
	ci, ok := r.lockCls[shape]
	return ci, ok
}

// CycleCovering reports whether some static cycle candidate's class set
// contains every given class.
func (r *Result) CycleCovering(classes []int) bool {
	for _, c := range r.Cycles {
		set := make(map[int]bool, len(c.Classes))
		for _, ci := range c.Classes {
			set[ci] = true
		}
		all := true
		for _, ci := range classes {
			if !set[ci] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Render writes the lock- and/or race-oriented sections of the
// human-readable report; verbose additionally lists every acquire site,
// order edge and access class. Output order is fixed (sites, then classes,
// sorted by function/block/instruction), so repeated runs are byte-identical.
func (r *Result) Render(w io.Writer, showLocks, showRaces, verbose bool) {
	fmt.Fprintf(w, "%s: %d acquire(s) (%d divergent), %d lock class(es), %d order edge(s), %d cycle candidate(s), %d race-candidate class(es)\n",
		r.Program, r.Acquires, r.DivergentAcquires, len(r.LockClasses), len(r.Edges), r.CycleCandidates, r.RaceCandidates)
	if showLocks {
		for i := range r.Sites {
			s := &r.Sites[i]
			if s.Release || s.Unreachable {
				continue
			}
			if s.Divergent {
				fmt.Fprintf(w, "  divergent acquire: %s b%d i%d lock %s — serialized under SIMT; livelock hazard if the critical section spins\n",
					s.FuncName, s.Block, s.Instr, s.Shape)
			} else if verbose {
				fmt.Fprintf(w, "  acquire: %s b%d i%d lock %s\n", s.FuncName, s.Block, s.Instr, s.Shape)
			}
		}
		for _, idx := range r.Recursions {
			s := &r.Sites[idx]
			fmt.Fprintf(w, "  recursive acquire: %s b%d i%d lock %s may already be held\n", s.FuncName, s.Block, s.Instr, s.Shape)
		}
		for _, idx := range r.BareReleases {
			s := &r.Sites[idx]
			fmt.Fprintf(w, "  release without acquire: %s b%d i%d lock %s\n", s.FuncName, s.Block, s.Instr, s.Shape)
		}
		for ci := range r.Cycles {
			c := &r.Cycles[ci]
			fmt.Fprintf(w, "  cycle candidate: classes %v over {%s}\n", c.Classes, strings.Join(c.Shapes, ", "))
		}
		if verbose {
			for i := range r.Edges {
				e := &r.Edges[i]
				fmt.Fprintf(w, "  order edge: %s -> %s\n", e.From, e.To)
			}
		}
	}
	if showRaces {
		for ci := range r.AccessClasses {
			ac := &r.AccessClasses[ci]
			if ac.Candidate {
				fmt.Fprintf(w, "  race candidate: class %d {%s} written with no common named lock\n", ci, strings.Join(ac.Shapes, ", "))
			} else if verbose {
				note := ac.Kind
				if len(ac.CommonLocks) > 0 {
					note = "protected by " + strings.Join(ac.CommonLocks, ", ")
				}
				fmt.Fprintf(w, "  class %d {%s}: %s\n", ci, strings.Join(ac.Shapes, ", "), note)
			}
		}
	}
}
