package analysis

import (
	"fmt"
	"sort"
	"strings"

	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// locksetPass is an Eraser-style dynamic race detector over the trace's
// per-thread memory and lock events. Each shared address carries a candidate
// lockset — the locks held on every access so far — refined by intersection;
// a read-shared/exclusive state machine suppresses the classic false
// positives (single-owner data and initialize-then-share patterns), so a
// report means some thread wrote the address while the candidate set was
// empty. The SIMT projection makes this worth running before a port: lock
// emulation serializes contended sections, so a racy MIMD program can replay
// with plausible numbers while hiding a correctness bug the GPU port will
// inherit.
//
// Lockset analysis is order-insensitive in the way that matters here: set
// intersection is commutative, so walking threads one after another (rather
// than in a real interleaving) finds exactly the addresses that lack a
// consistent protecting lock.
type locksetPass struct{}

func (locksetPass) ID() string { return "lockset" }
func (locksetPass) Desc() string {
	return "Eraser-style lockset refinement: shared addresses written with an empty candidate lockset"
}

// Shadow-word states, per Eraser's figure 2. Virgin is represented by the
// shadow not existing yet.
const (
	stExclusive = iota // one thread has accessed; no lockset tracked
	stShared           // multiple readers after the owner; refining lockset
	stSharedMod        // some non-first thread wrote; empty lockset = race
)

type shadow struct {
	state   int
	owner   int // first accessing thread
	init    bool
	lockset []uint64 // sorted candidate set; valid once init
	threads []int    // accessing threads, capped for reporting
	report  bool     // race already recorded for this address
}

const maxRaceThreads = 8

func (sh *shadow) note(tid int) {
	for _, t := range sh.threads {
		if t == tid {
			return
		}
	}
	if len(sh.threads) < maxRaceThreads {
		sh.threads = append(sh.threads, tid)
	}
}

// eraserWalk runs the Eraser shadow state machine over every thread's memory
// and lock events, invoking report exactly once per racy address — at the
// first access that left its candidate lockset empty in the SharedMod state.
// Lock words and stack addresses are excluded.
func eraserWalk(t *trace.Trace, report func(r *trace.Record, m *trace.MemAccess, sh *shadow)) {
	// Lock words are synchronization state, not data: accesses to them are
	// excluded, whichever thread or instruction touches them.
	lockWords := make(map[uint64]bool)
	for _, th := range t.Threads {
		for _, l := range th.Locks {
			lockWords[l.Addr] = true
		}
	}

	shadows := make(map[uint64]*shadow)
	lockWalk(t, lockHooks{access: func(tid int, r *trace.Record, m *trace.MemAccess, held heldSet) {
		if lockWords[m.Addr] || vm.SegmentOf(m.Addr) == vm.SegStack {
			return
		}
		sh := shadows[m.Addr]
		if sh == nil {
			shadows[m.Addr] = &shadow{state: stExclusive, owner: tid, threads: []int{tid}}
			return
		}
		if !sh.init && sh.owner == tid {
			return // still exclusive to the first thread
		}
		sh.note(tid)
		if !sh.init {
			sh.lockset = sortedLocks(held)
			sh.init = true
			if m.Store {
				sh.state = stSharedMod
			} else {
				sh.state = stShared
			}
		} else {
			sh.lockset = intersectHeld(sh.lockset, held)
			if m.Store {
				sh.state = stSharedMod
			}
		}
		if sh.state == stSharedMod && len(sh.lockset) == 0 && !sh.report {
			sh.report = true
			report(r, m, sh)
		}
	}})
}

// raceSite aggregates race reports by static location, so one racy store in
// a loop over a thousand addresses yields one finding, not a thousand.
type raceSite struct {
	fn      uint32
	block   uint32
	instr   uint16
	store   bool
	count   int
	minAddr uint64
	threads map[int]bool
}

func (locksetPass) Run(ctx *Context) error {
	t := ctx.Trace
	sites := make(map[[3]uint64]*raceSite)
	eraserWalk(t, func(r *trace.Record, m *trace.MemAccess, sh *shadow) {
		key := [3]uint64{uint64(r.Func), uint64(r.Block), uint64(m.Instr)}
		site := sites[key]
		if site == nil {
			site = &raceSite{fn: r.Func, block: r.Block, instr: m.Instr,
				store: m.Store, minAddr: m.Addr, threads: make(map[int]bool)}
			sites[key] = site
		}
		site.count++
		if m.Addr < site.minAddr {
			site.minAddr = m.Addr
		}
		for _, tid := range sh.threads {
			site.threads[tid] = true
		}
	})

	keys := make([][3]uint64, 0, len(sites))
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, k := range keys {
		site := sites[k]
		f := finding("lockset", SevError)
		f.Function = t.FuncName(site.fn)
		f.Block = int32(site.block)
		f.Addr = site.minAddr
		f.Threads = sortedInts(site.threads)
		kind := "access"
		if site.store {
			kind = "write"
		}
		f.Message = fmt.Sprintf("unsynchronized shared %s at instruction %d: candidate lockset is empty for %d address(es) (first 0x%x), threads %s",
			kind, site.instr, site.count, site.minAddr, intsCSV(f.Threads))
		f.Details = map[string]string{
			"instr":     fmt.Sprintf("%d", site.instr),
			"addresses": fmt.Sprintf("%d", site.count),
		}
		ctx.add(f)
	}
	return nil
}

// RaceAccess is one static site observed touching a racy address.
type RaceAccess struct {
	Func  uint32
	Block uint32
	Instr uint16
	// Store reports that some dynamic access at this site stored.
	Store bool
	// Unlocked reports that some dynamic access at this site happened with
	// zero locks held — the strongest form of the race, which the static
	// oracle must flag as a candidate at this very site.
	Unlocked bool
}

// RacyAddr groups the accessing sites of one address the Eraser machine
// reported racy.
type RacyAddr struct {
	Addr     uint64
	Accesses []RaceAccess // deduped by site, deterministically sorted
}

// DynamicRaceAccesses runs the Eraser lockset machine and, for every racy
// address it reports, re-walks the trace collecting the static sites that
// touched that address (with per-site store/unlocked attribution). This is
// the dynamic ground truth the staticlock cross-check pass compares the
// static race candidates against.
func DynamicRaceAccesses(t *trace.Trace) []RacyAddr {
	racy := map[uint64]bool{}
	eraserWalk(t, func(_ *trace.Record, m *trace.MemAccess, _ *shadow) {
		racy[m.Addr] = true
	})
	if len(racy) == 0 {
		return nil
	}

	type key struct {
		addr uint64
		site LockSite
	}
	accs := map[key]*RaceAccess{}
	lockWalk(t, lockHooks{access: func(_ int, r *trace.Record, m *trace.MemAccess, held heldSet) {
		if !racy[m.Addr] {
			return
		}
		k := key{m.Addr, LockSite{Func: r.Func, Block: r.Block, Instr: m.Instr}}
		a := accs[k]
		if a == nil {
			a = &RaceAccess{Func: r.Func, Block: r.Block, Instr: m.Instr}
			accs[k] = a
		}
		if m.Store {
			a.Store = true
		}
		if len(held) == 0 {
			a.Unlocked = true
		}
	}})

	byAddr := map[uint64][]RaceAccess{}
	for k, a := range accs {
		byAddr[k.addr] = append(byAddr[k.addr], *a)
	}
	out := make([]RacyAddr, 0, len(byAddr))
	for addr, as := range byAddr {
		sort.Slice(as, func(i, j int) bool {
			si := LockSite{as[i].Func, as[i].Block, as[i].Instr}
			sj := LockSite{as[j].Func, as[j].Block, as[j].Instr}
			return si.less(sj)
		})
		out = append(out, RacyAddr{Addr: addr, Accesses: as})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func sortedLocks(held heldSet) []uint64 {
	out := make([]uint64, 0, len(held))
	for a := range held {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// intersectHeld keeps the candidate locks still held, preserving order.
func intersectHeld(candidates []uint64, held heldSet) []uint64 {
	kept := candidates[:0]
	for _, a := range candidates {
		if _, ok := held[a]; ok {
			kept = append(kept, a)
		}
	}
	return kept
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	s := strings.Join(parts, ",")
	if len(vs) == maxRaceThreads {
		s += ",..."
	}
	return s
}
