package analysis

import (
	"fmt"

	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// sanitizePass validates the trace stream itself: call/return balance,
// symbol-table consistency, memory accesses inside known segments, and
// thread-id ordering. It reports with precise trace positions instead of
// stopping at the first defect the way trace.Validate does, and it covers
// every invariant the DCFG builder relies on, so a trace with zero sanitize
// errors is safe for the structural passes to consume.
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
}

func (s *sanitizer) report(f Finding) {
	if s.emitted >= maxSanitizeFindings {
		s.truncated++
		return
	}
	s.emitted++
	s.ctx.add(f)
}

func (s *sanitizer) at(sev Severity, tid, record int, format string, args ...any) {
	f := finding("sanitize", sev)
	f.Thread = tid
	f.Record = record
	f.Message = fmt.Sprintf(format, args...)
	s.report(f)
}

func (sanitizePass) Run(ctx *Context) error {
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
	return nil
}

// thread walks one record stream with an explicit call stack, mirroring the
// frame bookkeeping of cfg.Build so its error cases are all caught here.
func (s *sanitizer) thread(t *trace.Trace, th *trace.ThreadTrace) {
	// The payload checks read accesses and lock ops through the records'
	// ranges, which must first be known to lie in the tables.
	if err := th.CheckLayout(); err != nil {
		s.at(SevError, th.TID, 0, "%v", err)
		return
	}
	var stack []uint32 // callee function ids of in-flight invocations
	for ri := range th.Records {
		r := &th.Records[ri]
		switch r.Kind {
		case trace.KindCall:
			if int(r.Callee) >= len(t.Funcs) {
				s.at(SevError, th.TID, ri, "call to function %d outside the symbol table (%d functions)", r.Callee, len(t.Funcs))
			}
			stack = append(stack, r.Callee)
		case trace.KindRet:
			if len(stack) == 0 {
				s.at(SevError, th.TID, ri, "return below the thread's entry call")
				continue
			}
			stack = stack[:len(stack)-1]
		case trace.KindBBL:
			s.block(t, th, ri, r, stack)
		case trace.KindSkip:
			if r.SkipKind != trace.SkipIO && r.SkipKind != trace.SkipSpin {
				s.at(SevWarning, th.TID, ri, "unknown skip kind %d", r.SkipKind)
			}
		default:
			s.at(SevError, th.TID, ri, "unknown record kind %d", r.Kind)
		}
	}
	if len(stack) != 0 {
		s.at(SevError, th.TID, len(th.Records)-1, "%d unterminated function invocation(s) at end of stream", len(stack))
	}
}

func (s *sanitizer) block(t *trace.Trace, th *trace.ThreadTrace, ri int, r *trace.Record, stack []uint32) {
	if len(stack) == 0 {
		s.at(SevError, th.TID, ri, "basic block outside any function invocation")
	} else if top := stack[len(stack)-1]; top != r.Func {
		s.at(SevError, th.TID, ri, "block of %s inside an invocation of %s", t.FuncName(r.Func), t.FuncName(top))
	}
	if int(r.Func) >= len(t.Funcs) {
		s.at(SevError, th.TID, ri, "function %d outside the symbol table (%d functions)", r.Func, len(t.Funcs))
	} else {
		blocks := t.Funcs[r.Func].Blocks
		if int(r.Block) >= len(blocks) {
			s.at(SevError, th.TID, ri, "block %d outside %s (%d blocks)", r.Block, t.FuncName(r.Func), len(blocks))
		} else if want := uint64(blocks[r.Block].NInstr); r.N != want {
			s.at(SevError, th.TID, ri, "%s.b%d executed %d instructions, static table says %d",
				t.FuncName(r.Func), r.Block, r.N, want)
		}
	}
	mem := th.MemOf(r)
	for mi := range mem {
		m := &mem[mi]
		if uint64(m.Instr) >= r.N {
			s.at(SevError, th.TID, ri, "memory access at instruction %d outside block of %d instructions", m.Instr, r.N)
		}
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
	locks := th.LocksOf(r)
	for li := range locks {
		l := &locks[li]
		if uint64(l.Instr) >= r.N {
			s.at(SevError, th.TID, ri, "lock operation at instruction %d outside block of %d instructions", l.Instr, r.N)
		}
		if l.Addr < vm.GlobalBase {
			s.at(SevError, th.TID, ri, "lock word at 0x%x outside the known segments", l.Addr)
		}
	}
}
