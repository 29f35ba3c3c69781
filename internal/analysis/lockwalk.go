package analysis

import "threadfuser/internal/trace"

// heldLock is one lock word a thread holds: the number of acquires not yet
// released, and the site of the outermost one.
type heldLock struct {
	depth int
	site  LockSite
}

// heldSet maps each lock word a thread holds to its hold.
type heldSet map[uint64]heldLock

// apply is the only code that changes a thread's held set. Acquiring a free
// word holds it at depth one from this site, re-acquiring a held word
// deepens it, a release undoes one level, and releasing a word the thread
// does not hold changes nothing.
func (h heldSet) apply(r *trace.Record, l *trace.LockOp) {
	cur, ok := h[l.Addr]
	switch {
	case !l.Release && ok:
		cur.depth++
		h[l.Addr] = cur
	case !l.Release:
		h[l.Addr] = heldLock{depth: 1, site: LockSite{Func: r.Func, Block: r.Block, Instr: l.Instr}}
	case cur.depth > 1:
		cur.depth--
		h[l.Addr] = cur
	default:
		delete(h, l.Addr)
	}
}

// lockHooks observe a lockWalk. Every hook is optional and sees the
// thread's held set at that point; none may modify it.
type lockHooks struct {
	// access sees each memory access once every lock operation at or
	// before its instruction has applied.
	access func(tid int, r *trace.Record, m *trace.MemAccess, held heldSet)
	// lock sees locks[li], the li-th of r's lock ops, before it applies.
	lock func(tid int, r *trace.Record, locks []trace.LockOp, li int, held heldSet)
	// end sees what the thread still holds after its last record.
	end func(tid int, held heldSet)
}

// lockWalk is the analyzer's one model of lock ownership: a thread holds a
// lock word from its acquire to the matching release. It walks the threads
// in trace order and applies each block's lock operations in instruction
// order, so an acquire at or before an access's instruction protects that
// access and a later release does not.
func lockWalk(t *trace.Trace, hk lockHooks) {
	for _, th := range t.Threads {
		held := heldSet{}
		for ri := range th.Records {
			r := &th.Records[ri]
			if r.Kind != trace.KindBBL {
				continue
			}
			mem, locks := th.MemOf(ri), th.LocksOf(ri)
			li := 0
			step := func() {
				if hk.lock != nil {
					hk.lock(th.TID, r, locks, li, held)
				}
				held.apply(r, &locks[li])
				li++
			}
			for mi := range mem {
				m := &mem[mi]
				for li < len(locks) && locks[li].Instr <= m.Instr {
					step()
				}
				if hk.access != nil {
					hk.access(th.TID, r, m, held)
				}
			}
			for li < len(locks) {
				step()
			}
		}
		if hk.end != nil {
			hk.end(th.TID, held)
		}
	}
}
