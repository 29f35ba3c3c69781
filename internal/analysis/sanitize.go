package analysis

import (
	"fmt"

	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// sanitizePass validates the trace stream itself. It reports every defect
// trace.Trace.ValidateThread checks for (ThreadDefects lists them all, with
// their records, where ValidateThread returns the first), so a trace with
// zero sanitize errors prepares and is safe for the structural passes to
// consume. To those it adds a departure from the builders' table layout
// (ThreadTrace.CheckLayout, one finding per thread) and its own lint-level
// checks: thread-id order, memory accesses that are zero-size, outside the
// known segments, wrap the address space or straddle a segment boundary,
// overlapping stores, lock words outside the segments, and unknown skip
// kinds.
type sanitizePass struct{}

func (sanitizePass) ID() string { return "sanitize" }
func (sanitizePass) Desc() string {
	return "structural trace validation: call/return nesting, symbol-table consistency, segment bounds, thread-id ordering"
}

// maxSanitizeFindings caps the reported defects; corrupt inputs can carry
// millions and one screenful already proves the trace unusable.
const maxSanitizeFindings = 200

type sanitizer struct {
	ctx       *Context
	emitted   int
	truncated int
	errs      int // error findings, reported or suppressed past the cap
}

// at reports a finding, or only counts it past maxSanitizeFindings.
func (s *sanitizer) at(sev Severity, tid, record int, format string, args ...any) {
	if sev == SevError {
		s.errs++
	}
	if s.emitted >= maxSanitizeFindings {
		s.truncated++
		return
	}
	s.emitted++
	f := finding("sanitize", sev)
	f.Thread = tid
	f.Record = record
	f.Message = fmt.Sprintf(format, args...)
	s.ctx.add(f)
}

func (sanitizePass) Run(ctx *Context) error { sanitize(ctx); return nil }

// sanitize runs the pass and returns how many errors it found, including
// those past maxSanitizeFindings, which warnings can fill ahead of them.
func sanitize(ctx *Context) int {
	t := ctx.Trace
	s := &sanitizer{ctx: ctx}

	for i, th := range t.Threads {
		if th.TID < 0 {
			s.at(SevError, th.TID, -1, "negative thread id %d", th.TID)
		}
		if i > 0 {
			prev := t.Threads[i-1].TID
			if th.TID <= prev {
				s.at(SevWarning, th.TID, -1, "thread ids not strictly increasing: %d follows %d", th.TID, prev)
			} else if th.TID != prev+1 {
				s.at(SevWarning, th.TID, -1, "thread-id gap: %d follows %d", th.TID, prev)
			}
		}
		s.thread(t, th)
	}

	if s.truncated > 0 {
		f := finding("sanitize", SevWarning)
		f.Message = fmt.Sprintf("%d further finding(s) suppressed after the first %d", s.truncated, maxSanitizeFindings)
		ctx.add(f)
	}
	return s.errs
}

// thread reports one thread's structural defects, its layout departure if
// any, and the lint-level findings of its records.
func (s *sanitizer) thread(t *trace.Trace, th *trace.ThreadTrace) {
	t.ThreadDefects(th, func(d trace.Defect) {
		s.at(SevError, th.TID, d.Record, "%s", d.Msg)
	})
	if err := th.CheckLayout(); err != nil {
		d := err.(trace.Defect)
		s.at(SevError, th.TID, d.Record, "%s", d.Msg)
	}
	for ri := range th.Records {
		r := &th.Records[ri]
		switch r.Kind {
		case trace.KindBBL:
			// The walk reported a record whose ranges leave the tables;
			// its accesses and lock ops cannot be read.
			if th.InTables(ri) {
				s.payload(th, ri)
			}
		case trace.KindSkip:
			if r.SkipKind != trace.SkipIO && r.SkipKind != trace.SkipSpin {
				s.at(SevWarning, th.TID, ri, "unknown skip kind %d", r.SkipKind)
			}
		}
	}
}

// payload checks a block record's accesses and lock ops against the VM
// segment map.
func (s *sanitizer) payload(th *trace.ThreadTrace, ri int) {
	mem := th.MemOf(ri)
	for mi := range mem {
		m := &mem[mi]
		if m.Size == 0 {
			s.at(SevError, th.TID, ri, "zero-size memory access at 0x%x", m.Addr)
			continue
		}
		if m.Addr < vm.GlobalBase {
			s.at(SevError, th.TID, ri, "access at 0x%x outside the known segments (global/heap/stack)", m.Addr)
			continue
		}
		end := m.Addr + uint64(m.Size) - 1
		if end < m.Addr {
			s.at(SevError, th.TID, ri, "%d-byte access at 0x%x wraps the address space", m.Size, m.Addr)
		} else if vm.SegmentOf(m.Addr) != vm.SegmentOf(end) {
			s.at(SevError, th.TID, ri, "%d-byte access at 0x%x straddles the %s/%s segment boundary",
				m.Size, m.Addr, vm.SegmentOf(m.Addr), vm.SegmentOf(end))
		}
	}
	// Two stores from one instruction to overlapping bytes cannot come from
	// any real instruction (a read-modify-write emits a load and a store).
	if n := len(mem); n >= 2 && n <= 64 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := &mem[i], &mem[j]
				if a.Instr != b.Instr || !a.Store || !b.Store || a.Size == 0 || b.Size == 0 {
					continue
				}
				if a.Addr < b.Addr+uint64(b.Size) && b.Addr < a.Addr+uint64(a.Size) {
					s.at(SevWarning, th.TID, ri, "instruction %d issues overlapping stores at 0x%x and 0x%x", a.Instr, a.Addr, b.Addr)
				}
			}
		}
	}
	for _, l := range th.LocksOf(ri) {
		if l.Addr < vm.GlobalBase {
			s.at(SevError, th.TID, ri, "lock word at 0x%x outside the known segments", l.Addr)
		}
	}
}
