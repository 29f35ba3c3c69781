// Package cfg builds per-function Dynamic Control Flow Graphs (DCFGs) from
// ThreadFuser traces.
//
// As the paper describes (section III), building one DCFG over the whole
// trace would let a function's return instruction point at many blocks and
// force the IPDOM analysis toward overly conservative, distant reconvergence
// points. ThreadFuser instead builds one DCFG per function and appends a
// virtual exit block to each, compelling divergent threads to reconverge at
// function end — mirroring how GPUs reconverge at the end of a called
// function. Each thread's DCFG is derived from its dynamic block stream and
// the per-thread graphs are merged into one unified graph per function.
package cfg

import (
	"sort"

	"threadfuser/internal/trace"
)

// VirtualExit is the block id used for a function's synthetic exit node in
// its DCFG: it equals the number of static blocks, so block ids 0..NBlocks-1
// are real and NBlocks is the exit.
//
// Exit(nblocks) returns that id for clarity at call sites.
func Exit(nblocks int) int32 { return int32(nblocks) }

// DCFG is the merged dynamic control flow graph of one function. Node ids
// are block ids; node Exit(NBlocks) is the virtual exit.
type DCFG struct {
	Func    uint32
	NBlocks int // static block count (excludes the virtual exit)

	succs [][]int32
	preds [][]int32

	entrySeen   bool
	entry       int32
	entryThread int // trace index of the thread that supplied entry
}

// NumNodes returns the node count including the virtual exit.
func (g *DCFG) NumNodes() int { return g.NBlocks + 1 }

// ExitNode returns the virtual exit node id.
func (g *DCFG) ExitNode() int32 { return Exit(g.NBlocks) }

// Entry returns the observed entry block: the first block executed on any
// invocation of the function, in trace order (the lowest-indexed thread that
// invokes it, at its first invocation). Functions are entered at block 0 by
// construction, but the DCFG records what the trace shows.
func (g *DCFG) Entry() int32 { return g.entry }

// Succs returns the successor list of node b.
func (g *DCFG) Succs(b int32) []int32 { return g.succs[b] }

// Preds returns the predecessor list of node b.
func (g *DCFG) Preds(b int32) []int32 { return g.preds[b] }

// HasEdge reports whether the edge from→to was observed.
func (g *DCFG) HasEdge(from, to int32) bool {
	for _, s := range g.succs[from] {
		if s == to {
			return true
		}
	}
	return false
}

// NumEdges returns the total observed edge count.
func (g *DCFG) NumEdges() int {
	n := 0
	for _, s := range g.succs {
		n += len(s)
	}
	return n
}

func newDCFG(fn uint32, nblocks int) *DCFG {
	return &DCFG{
		Func:    fn,
		NBlocks: nblocks,
		succs:   make([][]int32, nblocks+1),
		preds:   make([][]int32, nblocks+1),
	}
}

func (g *DCFG) addEdge(from, to int32) {
	if g.HasEdge(from, to) {
		return
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// observeEntry records b, entered by thread, as the entry unless a thread
// earlier in trace order (or thread itself, earlier in its records)
// already supplied one.
func (g *DCFG) observeEntry(b int32, thread int) {
	if !g.entrySeen || thread < g.entryThread {
		g.entry, g.entrySeen, g.entryThread = b, true, thread
	}
}

// merge adds o's edges and entry to g, which is of the same function.
func (g *DCFG) merge(o *DCFG) {
	for from, succs := range o.succs {
		for _, to := range succs {
			g.addEdge(int32(from), to)
		}
	}
	if o.entrySeen {
		g.observeEntry(o.entry, o.entryThread)
	}
}

// sortEdges makes edge order deterministic regardless of trace thread order.
func (g *DCFG) sortEdges() {
	for _, s := range g.succs {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	for _, p := range g.preds {
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	}
}

// Build validates the trace and constructs the merged per-function DCFGs
// for every function that appears in it, walking the threads serially in
// trace order. The map is keyed by function id. core's ingest builds the
// same graphs over parallel workers (see Builder).
func Build(t *trace.Trace) (map[uint32]*DCFG, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	b := NewBuilder(t.Funcs)
	for _, th := range t.Threads {
		b.AddThread(th)
	}
	return b.Finish(), nil
}

// walkFrame tracks the last executed block of one in-flight function
// invocation while scanning a thread's record stream.
type walkFrame struct {
	fn   uint32
	last int32 // -1 until the first block of the invocation executes
}

// Builder accumulates merged per-function DCFGs one thread at a time, for
// callers that validate the threads themselves. It decides nothing about
// well-formedness: every thread it is given must have passed
// trace.Trace.ValidateThread. Each thread is added under its index in the
// trace: AddThread takes the next index, Add a given one. Builders that
// each saw some of a trace's threads combine with Merge, which is how
// core's ingest builds the graphs on every worker: each validates a thread
// and adds it to a Builder of its own while its records are still in
// cache, and the Builders are merged at the end. Whatever the split or the
// order of the adds, the result is Build's: Finish sorts the edges, and
// Entry keeps the block of the lowest-indexed thread that entered the
// function. Graphs live in a slice indexed by function id, so the
// per-record lookup is an index, not a map probe. A Builder is not safe for
// concurrent use.
type Builder struct {
	funcs  []trace.FuncInfo
	graphs []*DCFG     // by function id; nil until the function is observed
	stack  []walkFrame // reused across AddThread calls
	next   int         // the index AddThread gives its thread
}

// NewBuilder returns a Builder resolving block counts against funcs, which
// must be the symbol table of every trace whose threads are added.
func NewBuilder(funcs []trace.FuncInfo) *Builder {
	return &Builder{funcs: funcs, graphs: make([]*DCFG, len(funcs))}
}

func (bl *Builder) graphFor(fn uint32) *DCFG {
	g := bl.graphs[fn]
	if g == nil {
		g = newDCFG(fn, len(bl.funcs[fn].Blocks))
		bl.graphs[fn] = g
	}
	return g
}

// AddThread merges one thread's observed control flow into the graphs as
// the thread after the last one added (the first is thread 0), so adding a
// trace's threads in order gives each its trace index. th must have passed
// Trace.ValidateThread against the Builder's symbol table, so its blocks
// nest in well-formed call/ret frames. The error is always nil.
func (bl *Builder) AddThread(th *trace.ThreadTrace) error {
	bl.Add(bl.next, th)
	return nil
}

// Add merges the control flow of th, thread index of the trace, into the
// graphs, as AddThread does.
func (bl *Builder) Add(index int, th *trace.ThreadTrace) {
	bl.next = index + 1
	stack := bl.stack[:0]
	for i := range th.Records {
		r := &th.Records[i]
		switch r.Kind {
		case trace.KindCall:
			stack = append(stack, walkFrame{fn: r.Callee, last: -1})
		case trace.KindBBL:
			top := &stack[len(stack)-1]
			g := bl.graphFor(r.Func)
			b := int32(r.Block)
			if top.last < 0 {
				g.observeEntry(b, index)
			} else {
				g.addEdge(top.last, b)
			}
			top.last = b
		case trace.KindRet:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g := bl.graphFor(top.fn)
			if top.last >= 0 {
				g.addEdge(top.last, g.ExitNode())
			}
		}
	}
	bl.stack = stack
}

// Merge adds the graphs of o, built over other threads of the same trace,
// to bl's. o must not be used afterwards.
func (bl *Builder) Merge(o *Builder) {
	for fn, g := range o.graphs {
		switch {
		case g == nil:
		case bl.graphs[fn] == nil:
			bl.graphs[fn] = g
		default:
			bl.graphs[fn].merge(g)
		}
	}
}

// Finish seals and returns the merged graphs, keyed by function id. The
// Builder must not be used afterwards. Every observed block has a
// successor, as the post-dominator analysis needs: a validated thread
// closes each invocation with a return, which links the invocation's last
// block to the virtual exit.
func (bl *Builder) Finish() map[uint32]*DCFG {
	out := make(map[uint32]*DCFG)
	for fn, g := range bl.graphs {
		if g == nil {
			continue
		}
		g.sortEdges()
		out[uint32(fn)] = g
	}
	return out
}
