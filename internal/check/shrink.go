package check

import "threadfuser/internal/trace"

// Shrink reduces a failing trace to a smaller one that still fails, so a
// property violation on a generated trace arrives as a minimal reproducer
// rather than a thousand-record haystack. fails must report whether a
// candidate trace still exhibits the failure; candidates that do not pass
// trace.Validate are never offered to it. budget caps the number of fails
// evaluations (<=0 means a default of 500). Shrinking is deterministic.
//
// The reduction loop interleaves three strategies until a fixed point or
// budget exhaustion: dropping whole threads, delta-debugging contiguous
// record ranges out of each thread (halving chunk sizes, so balanced
// call..ret spans disappear in one step), and stripping memory/lock payloads
// from individual records.
func Shrink(tr *trace.Trace, fails func(*trace.Trace) bool, budget int) *trace.Trace {
	if budget <= 0 {
		budget = 500
	}
	cur := tr
	attempts := 0
	try := func(cand *trace.Trace) bool {
		if attempts >= budget {
			return false
		}
		if cand.Validate() != nil {
			return false
		}
		attempts++
		if fails(cand) {
			cur = cand
			return true
		}
		return false
	}

	for progress := true; progress && attempts < budget; {
		progress = false

		// Drop whole threads, preferring the largest cut first.
		for i := 0; i < len(cur.Threads); {
			if len(cur.Threads) == 1 {
				break
			}
			if try(dropThread(cur, i)) {
				progress = true
				continue // same index now names the next thread
			}
			i++
		}

		// Delta-debug each thread's record stream.
		for ti := 0; ti < len(cur.Threads); ti++ {
			for size := len(cur.Threads[ti].Records) / 2; size >= 1; size /= 2 {
				for start := 0; start+size <= len(cur.Threads[ti].Records); {
					if try(dropRecords(cur, ti, start, size)) {
						progress = true
						continue // records shifted into place; retry same start
					}
					start += size
				}
			}
		}

		// Strip payloads: memory accesses, then lock ops.
		for ti := 0; ti < len(cur.Threads); ti++ {
			for ri := range cur.Threads[ti].Records {
				if len(cur.Threads[ti].MemOf(ri)) > 0 && try(stripPayload(cur, ti, ri, true)) {
					progress = true
				}
				if len(cur.Threads[ti].LocksOf(ri)) > 0 && try(stripPayload(cur, ti, ri, false)) {
					progress = true
				}
			}
		}
	}
	return cur
}

// dropThread returns a copy of the trace without thread i. Surviving
// ThreadTrace values are shared, never mutated.
func dropThread(t *trace.Trace, i int) *trace.Trace {
	nt := *t
	nt.Threads = make([]*trace.ThreadTrace, 0, len(t.Threads)-1)
	nt.Threads = append(nt.Threads, t.Threads[:i]...)
	nt.Threads = append(nt.Threads, t.Threads[i+1:]...)
	return &nt
}

// dropRecords returns a copy of the trace with records [start, start+size)
// removed from thread ti.
func dropRecords(t *trace.Trace, ti, start, size int) *trace.Trace {
	src := t.Threads[ti]
	nth := &trace.ThreadTrace{TID: src.TID}
	for ri := range src.Records {
		if ri < start || ri >= start+size {
			nth.Append(src.Records[ri], src.MemOf(ri), src.LocksOf(ri))
		}
	}
	return replaceThread(t, ti, nth)
}

// stripPayload returns a copy of the trace with thread ti's record ri
// stripped of its memory accesses (mem=true) or lock ops (mem=false).
func stripPayload(t *trace.Trace, ti, ri int, mem bool) *trace.Trace {
	src := t.Threads[ti]
	nth := &trace.ThreadTrace{TID: src.TID}
	for i := range src.Records {
		m, l := src.MemOf(i), src.LocksOf(i)
		if i == ri {
			if mem {
				m = nil
			} else {
				l = nil
			}
		}
		nth.Append(src.Records[i], m, l)
	}
	return replaceThread(t, ti, nth)
}

// replaceThread returns a copy of the trace with thread ti replaced by th;
// all other threads are shared.
func replaceThread(t *trace.Trace, ti int, th *trace.ThreadTrace) *trace.Trace {
	nt := *t
	nt.Threads = make([]*trace.ThreadTrace, len(t.Threads))
	copy(nt.Threads, t.Threads)
	nt.Threads[ti] = th
	return &nt
}
