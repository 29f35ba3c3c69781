package analysis

import (
	"fmt"
	"sort"

	"threadfuser/internal/trace"
)

// lockLintPass diagnoses synchronization: runtime lock leaks (acquired,
// never released), releases without acquires, recursive acquisitions,
// lock-order inversions, static acquire sites with a release-free path to
// the function's virtual exit, and critical sections whose intra-warp
// serialization dominates a function's efficiency loss (comparing the
// fine-grain-locking replay against the lock-emulating one, the paper's
// figure-9 axis).
type lockLintPass struct{}

func (lockLintPass) ID() string { return "locks" }
func (lockLintPass) Desc() string {
	return "leaked/nested/inverted lock patterns and critical sections that dominate serialization cost"
}

// Serialization-cost thresholds: a function must lose this much of its own
// efficiency under lock emulation, while carrying a minimum share of the
// program's instructions, before it is reported.
const (
	lockInfoDrop   = 0.02
	lockWarnDrop   = 0.10
	lockMinShare   = 0.01
	lockWarnShare  = 0.05
	maxLeakReports = 20
)

type lockAgg struct {
	count   int
	minAddr uint64
	threads map[int]bool
}

func aggAt(m map[LockSite]*lockAgg, site LockSite, addr uint64, tid int) {
	a := m[site]
	if a == nil {
		a = &lockAgg{minAddr: addr, threads: make(map[int]bool)}
		m[site] = a
	}
	a.count++
	if addr < a.minAddr {
		a.minAddr = addr
	}
	a.threads[tid] = true
}

func (lockLintPass) Run(ctx *Context) error {
	t := ctx.Trace

	type blockKey struct {
		fn    uint32
		block uint32
	}
	var (
		leaks      = map[LockSite]*lockAgg{} // held at end of thread
		recursive  = map[LockSite]*lockAgg{} // acquire of an already-held lock
		orphanRels = map[LockSite]*lockAgg{} // release without acquire
		openAcq    = map[blockKey]uint16{}   // blocks acquiring without an in-block release
		hasRelease = map[blockKey]bool{}     // blocks containing any release
	)
	lockWalk(t, lockHooks{
		lock: func(tid int, r *trace.Record, locks []trace.LockOp, li int, held heldSet) {
			l := &locks[li]
			site := LockSite{Func: r.Func, Block: r.Block, Instr: l.Instr}
			bk := blockKey{r.Func, r.Block}
			_, isHeld := held[l.Addr]
			if l.Release {
				hasRelease[bk] = true
				if !isHeld {
					aggAt(orphanRels, site, l.Addr, tid)
				}
				return
			}
			if isHeld {
				aggAt(recursive, site, l.Addr, tid)
				return
			}
			// Static view: an acquire with no release of the same lock
			// later in this block leaves the block holding it.
			released := false
			for lj := li + 1; lj < len(locks); lj++ {
				if locks[lj].Release && locks[lj].Addr == l.Addr {
					released = true
					break
				}
			}
			if !released {
				if _, seen := openAcq[bk]; !seen {
					openAcq[bk] = l.Instr
				}
			}
		},
		end: func(tid int, held heldSet) {
			for addr, h := range held {
				aggAt(leaks, h.site, addr, tid)
			}
		},
	})

	emit := func(m map[LockSite]*lockAgg, sev Severity, format string) {
		sites := make([]LockSite, 0, len(m))
		for s := range m {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].less(sites[j]) })
		for i, s := range sites {
			if i >= maxLeakReports {
				f := finding("locks", sev)
				f.Message = fmt.Sprintf("%d further site(s) suppressed", len(sites)-i)
				ctx.add(f)
				break
			}
			a := m[s]
			f := finding("locks", sev)
			f.Function = t.FuncName(s.Func)
			f.Block = int32(s.Block)
			f.Addr = a.minAddr
			f.Threads = sortedInts(a.threads)
			f.Message = fmt.Sprintf(format, s.Instr, a.count, a.minAddr, intsCSV(f.Threads))
			ctx.add(f)
		}
	}
	emit(leaks, SevError, "lock acquired at instruction %d is never released: %d leaked acquisition(s), first lock word 0x%x, threads %s")
	emit(recursive, SevWarning, "recursive acquisition at instruction %d of a lock already held: %d occurrence(s), first lock word 0x%x, threads %s")
	emit(orphanRels, SevWarning, "release at instruction %d without a matching acquire: %d occurrence(s), first lock word 0x%x, threads %s")

	// Lock-order inversions: the same two locks acquired in both orders by
	// some pair of threads is the classic deadlock recipe (the trace's
	// non-blocking locks hide it; real mutexes would not). The lock-order
	// graph's edges are sorted by (From, To) and repeat a pair once per
	// site pair, so each inversion is reported at its first edge.
	edges := DynamicLockOrder(t).Edges
	ordered := make(map[[2]uint64]bool, len(edges))
	for _, e := range edges {
		ordered[[2]uint64{e.From, e.To}] = true
	}
	for i, e := range edges {
		if e.From >= e.To || !ordered[[2]uint64{e.To, e.From}] ||
			(i > 0 && edges[i-1].From == e.From && edges[i-1].To == e.To) {
			continue
		}
		f := finding("locks", SevWarning)
		f.Addr = e.From
		f.Message = fmt.Sprintf("lock-order inversion: locks 0x%x and 0x%x are acquired in both orders (potential deadlock under blocking mutexes)", e.From, e.To)
		ctx.add(f)
	}

	// Static leak paths: from a block that ends holding a lock, can the
	// function's virtual exit be reached without ever passing a block that
	// releases one? Complements the runtime leak check — it also fires when
	// the traced threads happened to take the releasing path.
	openKeys := make([]blockKey, 0, len(openAcq))
	for bk := range openAcq {
		openKeys = append(openKeys, bk)
	}
	sort.Slice(openKeys, func(i, j int) bool {
		if openKeys[i].fn != openKeys[j].fn {
			return openKeys[i].fn < openKeys[j].fn
		}
		return openKeys[i].block < openKeys[j].block
	})
	for _, bk := range openKeys {
		g := ctx.Graphs[bk.fn]
		if g == nil {
			continue
		}
		seen := make(map[int32]bool)
		work := append([]int32(nil), g.Succs(int32(bk.block))...)
		leaky := false
		for len(work) > 0 && !leaky {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[blk] {
				continue
			}
			seen[blk] = true
			if blk == g.ExitNode() {
				leaky = true
				break
			}
			if hasRelease[blockKey{bk.fn, uint32(blk)}] {
				continue // this path releases; stop exploring through it
			}
			work = append(work, g.Succs(blk)...)
		}
		if leaky {
			f := finding("locks", SevWarning)
			f.Function = t.FuncName(bk.fn)
			f.Block = int32(bk.block)
			f.Message = fmt.Sprintf("lock acquired at instruction %d has a release-free path to the function exit (possible leak)", openAcq[bk])
			ctx.add(f)
		}
	}

	// Serialization cost: compare each function's own efficiency between
	// the fine-grain-locking replay and the lock-emulating one.
	if len(hasRelease) == 0 && len(openAcq) == 0 {
		return nil // no locks anywhere; skip the second replay
	}
	base, err := ctx.Report(false)
	if err != nil {
		return err
	}
	locked, err := ctx.Report(true)
	if err != nil {
		return err
	}
	for _, fr := range locked.PerFunction {
		if fr.LockSerializations == 0 || fr.InstrShare < lockMinShare {
			continue
		}
		b, ok := base.Function(fr.Name)
		if !ok {
			continue
		}
		drop := b.Efficiency - fr.Efficiency
		if drop < lockInfoDrop {
			continue
		}
		sev := SevInfo
		if drop >= lockWarnDrop && fr.InstrShare >= lockWarnShare {
			sev = SevWarning
		}
		f := finding("locks", sev)
		f.Function = fr.Name
		f.Message = fmt.Sprintf("critical sections serialize warps: own efficiency %.1f%% -> %.1f%% under lock emulation (%d serialization event(s), %d serialized lane(s), %.1f%% of program instructions)",
			b.Efficiency*100, fr.Efficiency*100, fr.LockSerializations, fr.SerializedLanes, fr.InstrShare*100)
		f.Details = map[string]string{
			"efficiency_drop": fmt.Sprintf("%.3f", drop),
			"serializations":  fmt.Sprintf("%d", fr.LockSerializations),
		}
		ctx.add(f)
	}
	return nil
}
