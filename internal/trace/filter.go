package trace

import "fmt"

// ExcludeFunctions implements the tracer's selective-tracing capability
// (paper section III: "the tool is configurable, allowing programmers to
// selectively choose specific functions for tracing or exclusion"). It
// returns a new trace in which every invocation of the named functions —
// including everything they call — is removed from the instruction stream
// and accounted as skipped I/O instructions, exactly how the paper's tracer
// treats untraced regions. The surrounding control flow stays well-formed:
// the caller's blocks flow directly across the removed call, so DCFG
// construction and replay work unchanged.
//
// Excluding a function that can appear at the top of a thread's stream (the
// entry function) empties that thread's trace, which Analyze tolerates (the
// thread contributes nothing).
func ExcludeFunctions(t *Trace, names ...string) (*Trace, error) {
	excluded, err := funcIDs(t, "exclude", names)
	if err != nil {
		return nil, err
	}
	return filter(t, func(th *ThreadTrace, s *stream) {
		depth := 0 // >0 while inside an excluded subtree
		for i := range th.Records {
			r := &th.Records[i]
			switch r.Kind {
			case KindCall:
				if depth > 0 || excluded[r.Callee] {
					depth++
					continue
				}
				s.flush()
				s.keep(i)
			case KindRet:
				if depth > 0 {
					depth--
					if depth == 0 {
						s.flush()
					}
					continue
				}
				s.keep(i)
			case KindBBL, KindSkip:
				if depth > 0 {
					s.dropped += r.N
					continue
				}
				s.keep(i)
			}
		}
	}), nil
}

// OnlyFunctions keeps the named functions (and their callees) and excludes
// everything else's own instructions: blocks belonging to un-listed
// functions are dropped (accounted as skipped) unless executed inside a
// kept function's invocation. This is the "focused analysis … of particular
// regions" mode of the paper's tracer.
func OnlyFunctions(t *Trace, names ...string) (*Trace, error) {
	keep, err := funcIDs(t, "only", names)
	if err != nil {
		return nil, err
	}
	return filter(t, func(th *ThreadTrace, s *stream) {
		// keptDepth > 0 while inside an invocation of a kept function;
		// emitted tracks whether each open frame was emitted.
		var emitted []bool
		keptDepth := 0
		for i := range th.Records {
			r := &th.Records[i]
			switch r.Kind {
			case KindCall:
				emit := keptDepth > 0 || keep[r.Callee]
				if emit {
					keptDepth++
					s.flush()
					s.keep(i)
				}
				emitted = append(emitted, emit)
			case KindRet:
				if len(emitted) == 0 {
					continue
				}
				emit := emitted[len(emitted)-1]
				emitted = emitted[:len(emitted)-1]
				if keptDepth > 0 {
					keptDepth--
					if keptDepth == 0 {
						s.flush()
					}
				}
				if emit {
					s.keep(i)
				}
			case KindBBL, KindSkip:
				if keptDepth > 0 {
					s.keep(i)
				} else {
					s.dropped += r.N
				}
			}
		}
	}), nil
}

// funcIDs resolves function names to the set of their ids. Every name must
// name at least one function; op labels the unknown-name error.
func funcIDs(t *Trace, op string, names []string) (map[uint32]bool, error) {
	ids := make(map[uint32]bool, len(names))
	for _, name := range names {
		found := false
		for id, fi := range t.Funcs {
			if fi.Name == name {
				ids[uint32(id)] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("trace: %s: no function named %q", op, name)
		}
	}
	return ids, nil
}

// stream builds one filtered thread from the records of src it keeps.
// Instructions of dropped records accumulate in dropped until flush writes
// them as one skipped-I/O record, exactly how the paper's tracer accounts
// untraced regions.
type stream struct {
	src, out *ThreadTrace
	dropped  uint64
}

// keep appends src's record i, with its accesses and lock ops, to the
// output.
func (s *stream) keep(i int) {
	s.out.Append(s.src.Records[i], s.src.MemOf(i), s.src.LocksOf(i))
}

func (s *stream) flush() {
	if s.dropped > 0 {
		s.out.Append(Record{Kind: KindSkip, SkipKind: SkipIO, N: s.dropped}, nil, nil)
		s.dropped = 0
	}
}

// filter returns a trace with t's header whose threads are rebuilt by
// thread, which applies one filter's keep/drop policy to a thread's records.
func filter(t *Trace, thread func(th *ThreadTrace, s *stream)) *Trace {
	out := &Trace{Program: t.Program, Entry: t.Entry, Funcs: t.Funcs}
	for _, th := range t.Threads {
		s := &stream{src: th, out: &ThreadTrace{TID: th.TID}}
		thread(th, s)
		s.flush()
		out.Threads = append(out.Threads, s.out)
	}
	return out
}
