package analysis

import (
	"fmt"
	"sort"
	"strings"

	"threadfuser/internal/graph"
	"threadfuser/internal/trace"
)

// LockSite identifies one static lock-op instruction: function, block, and
// the instruction's index within its block — the coordinates the dynamic
// trace records (trace.LockOp.Instr) and the static oracle share.
type LockSite struct {
	Func  uint32
	Block uint32
	Instr uint16
}

func (s LockSite) less(o LockSite) bool {
	if s.Func != o.Func {
		return s.Func < o.Func
	}
	if s.Block != o.Block {
		return s.Block < o.Block
	}
	return s.Instr < o.Instr
}

// LockEdge is one lock-order graph edge with site attribution: some thread
// acquired lock word To at ToSite while holding From, which it had acquired
// (at depth one) at FromSite. Edges are deduplicated on all four
// coordinates; Threads lists every thread that produced this exact edge.
type LockEdge struct {
	From     uint64
	To       uint64
	FromSite LockSite
	ToSite   LockSite
	Threads  []int
}

// LockCycle is one strongly connected component of the address-level
// lock-order graph with at least two locks — a set of acquisition orders
// that could interleave into a deadlock under blocking mutexes.
type LockCycle struct {
	// Addrs lists the SCC's lock words, sorted ascending.
	Addrs []uint64
	// Path is a canonical certificate walk inside the SCC (implicitly
	// closed back to Path[0]): from the smallest lock word, repeatedly the
	// smallest unvisited in-SCC successor.
	Path []uint64
	// Threads lists the threads contributing edges along Path.
	Threads []int
}

// LockOrder is the dynamic lock-order graph of a trace: site-attributed
// edges plus the cycles certifying potential deadlocks. Both slices are
// deterministically ordered.
type LockOrder struct {
	Edges  []LockEdge
	Cycles []LockCycle
}

// DynamicLockOrder replays every thread's lock events and builds the
// lock-order graph: an edge a→b whenever some thread acquired b while
// holding a (recursive re-acquires deepen the hold, they add no edge).
// The static oracle's cross-check consumes the site-attributed edges, the
// locks pass reads its pairwise inversions from them, and the deadlock pass
// formats the cycles.
func DynamicLockOrder(t *trace.Trace) *LockOrder {
	type edge struct{ from, to uint64 }
	type siteEdge struct {
		e        edge
		fromSite LockSite
		toSite   LockSite
	}
	edgeThreads := map[edge]map[int]bool{}
	siteThreads := map[siteEdge]map[int]bool{}
	nodes := map[uint64]bool{}
	lockWalk(t, lockHooks{lock: func(tid int, r *trace.Record, locks []trace.LockOp, li int, held heldSet) {
		l := &locks[li]
		if l.Release {
			return
		}
		if _, ok := held[l.Addr]; ok {
			return // recursive; no new order edge
		}
		site := LockSite{Func: r.Func, Block: r.Block, Instr: l.Instr}
		for other, h := range held {
			e := edge{other, l.Addr}
			if edgeThreads[e] == nil {
				edgeThreads[e] = map[int]bool{}
				nodes[other] = true
				nodes[l.Addr] = true
			}
			edgeThreads[e][tid] = true
			se := siteEdge{e, h.site, site}
			if siteThreads[se] == nil {
				siteThreads[se] = map[int]bool{}
			}
			siteThreads[se][tid] = true
		}
	}})

	lo := &LockOrder{}
	for se, ths := range siteThreads {
		lo.Edges = append(lo.Edges, LockEdge{
			From: se.e.from, To: se.e.to,
			FromSite: se.fromSite, ToSite: se.toSite,
			Threads: sortedInts(ths),
		})
	}
	sort.Slice(lo.Edges, func(i, j int) bool {
		a, b := &lo.Edges[i], &lo.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.FromSite != b.FromSite {
			return a.FromSite.less(b.FromSite)
		}
		return a.ToSite.less(b.ToSite)
	})
	if len(edgeThreads) == 0 {
		return lo
	}

	// Tarjan over the address-level graph; every SCC with ≥2 locks is a
	// cycle certificate.
	ids := make([]uint64, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	idx := make(map[uint64]int, len(ids))
	for i, n := range ids {
		idx[n] = i
	}
	succs := make([][]int, len(ids))
	for e := range edgeThreads {
		succs[idx[e.from]] = append(succs[idx[e.from]], idx[e.to])
	}
	for i := range succs {
		sort.Ints(succs[i])
	}

	for _, scc := range graph.SCCs(succs) {
		if len(scc) < 2 {
			continue
		}
		sort.Ints(scc)
		inSCC := make(map[int]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		// Canonical cycle path: from the smallest lock word, repeatedly step
		// to the smallest in-SCC successor not yet visited (closing back to
		// the start when no fresh node remains). Deterministic and readable;
		// it need not visit the whole SCC to certify the cycle.
		path := []int{scc[0]}
		visited := map[int]bool{scc[0]: true}
		for {
			cur := path[len(path)-1]
			next := -1
			for _, s := range succs[cur] {
				if inSCC[s] && !visited[s] {
					next = s
					break
				}
			}
			if next < 0 {
				break
			}
			visited[next] = true
			path = append(path, next)
		}
		c := LockCycle{Addrs: make([]uint64, 0, len(scc)), Path: make([]uint64, 0, len(path))}
		for _, v := range scc {
			c.Addrs = append(c.Addrs, ids[v])
		}
		threads := map[int]bool{}
		for i, v := range path {
			c.Path = append(c.Path, ids[v])
			to := path[0]
			if i+1 < len(path) {
				to = path[i+1]
			}
			for tid := range edgeThreads[edge{ids[v], ids[to]}] {
				threads[tid] = true
			}
		}
		c.Threads = sortedInts(threads)
		lo.Cycles = append(lo.Cycles, c)
	}
	return lo
}

// deadlockPass builds the program's lock-order graph — an edge a→b whenever
// some thread acquired lock b while holding lock a — and reports its cycles.
// The locks pass already flags two-lock inversions pairwise; this pass finds
// the general case (cycles of any length across any set of threads), the
// classic deadlock certificate the trace's non-blocking locks hide. It is
// the lock-order complement to the Eraser-style lockset race detector.
type deadlockPass struct{}

func (deadlockPass) ID() string { return "deadlock" }
func (deadlockPass) Desc() string {
	return "lock-order graph cycles: acquisition orders that could deadlock under blocking mutexes"
}

func (deadlockPass) Run(ctx *Context) error {
	lo := DynamicLockOrder(ctx.Trace)
	for _, c := range lo.Cycles {
		words := make([]string, 0, len(c.Path)+1)
		for _, a := range c.Path {
			words = append(words, fmt.Sprintf("0x%x", a))
		}
		words = append(words, words[0])

		f := finding("deadlock", SevWarning)
		f.Addr = c.Addrs[0]
		f.Threads = c.Threads
		f.Message = fmt.Sprintf("lock-order cycle over %d lock(s): %s (threads %s; would deadlock under blocking mutexes)",
			len(c.Addrs), strings.Join(words, " -> "), intsCSV(c.Threads))
		f.Details = map[string]string{"locks": fmt.Sprintf("%d", len(c.Addrs))}
		ctx.add(f)
	}
	return nil
}
