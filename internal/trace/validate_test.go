package trace_test

import (
	"strings"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/trace"
)

// validBase is a one-thread trace that validates: one call of f, one block,
// one return.
func validBase() *trace.Trace {
	th := &trace.ThreadTrace{TID: 0}
	th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
	th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 4}, nil, nil)
	th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
	return &trace.Trace{
		Program: "p",
		Funcs:   []trace.FuncInfo{{Name: "f", Blocks: []trace.BlockInfo{{NInstr: 4}}}},
		Threads: []*trace.ThreadTrace{th},
	}
}

// corruptions each break validBase in one way; want is a word of the error.
var corruptions = []struct {
	name   string
	mutate func(*trace.Trace)
	want   string
}{
	{"func out of range", func(tr *trace.Trace) { tr.Threads[0].Records[1].Func = 9 }, "out of range"},
	{"block out of range", func(tr *trace.Trace) { tr.Threads[0].Records[1].Block = 9 }, "out of range"},
	{"instr count mismatch", func(tr *trace.Trace) { tr.Threads[0].Records[1].N = 3 }, "static table"},
	{"mem index out of block", func(tr *trace.Trace) {
		tr.Threads[0].Records[2].MemLo = 1
		tr.Threads[0].Mem = []trace.MemAccess{{Instr: 8, Addr: 1, Size: 8}}
	}, "instr 8"},
	{"lock index out of block", func(tr *trace.Trace) {
		tr.Threads[0].Records[2].LockLo = 1
		tr.Threads[0].Locks = []trace.LockOp{{Instr: 9, Addr: 1}}
	}, "instr 9"},
	{"access range outside the table", func(tr *trace.Trace) {
		tr.Threads[0].Records[2].MemLo = 2
		tr.Threads[0].Mem = make([]trace.MemAccess, 1)
	}, "outside the tables"},
	{"call record carrying accesses", func(tr *trace.Trace) {
		th := &trace.ThreadTrace{TID: 0}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, []trace.MemAccess{{Addr: 1 << 32, Size: 8}}, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 4}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		tr.Threads[0] = th
	}, "CALL record carries"},
	{"return record carrying lock ops", func(tr *trace.Trace) {
		th := tr.Threads[0]
		th.Records, th.Ctl = th.Records[:2], th.Ctl[:2]
		th.Append(trace.Record{Kind: trace.KindRet}, nil, []trace.LockOp{{Addr: 1 << 32}})
	}, "RET record carries"},
	{"unbalanced ret", func(tr *trace.Trace) {
		tr.Threads[0].Append(trace.Record{Kind: trace.KindRet}, nil, nil)
	}, "below entry"},
	{"unterminated call", func(tr *trace.Trace) {
		th := tr.Threads[0]
		th.Records, th.Ctl = th.Records[:2], th.Ctl[:2]
	}, "unbalanced"},
	{"control words missing", func(tr *trace.Trace) { tr.Threads[0].Ctl = nil }, "control words"},
	{"control word too few", func(tr *trace.Trace) {
		th := tr.Threads[0]
		th.Ctl = th.Ctl[:len(th.Ctl)-1]
	}, "control words"},
	{"bad callee", func(tr *trace.Trace) { tr.Threads[0].Records[0].Callee = 7 }, "callee"},
	{"block outside any function", func(tr *trace.Trace) {
		th := &trace.ThreadTrace{TID: 0}
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 4}, nil, nil)
		tr.Threads[0] = th
	}, "outside any function"},
	{"block of another function inside an invocation", func(tr *trace.Trace) {
		tr.Funcs = append(tr.Funcs, trace.FuncInfo{Name: "g", Blocks: []trace.BlockInfo{{NInstr: 4}}})
		tr.Threads[0].Records[1].Func = 1
	}, "block of g inside an invocation of f"},
}

func TestValidateCatchesCorruption(t *testing.T) {
	for _, c := range corruptions {
		tr := validBase()
		c.mutate(tr)
		err := tr.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := validBase().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
}

// TestSanitizeLeadsWithValidateDefect: on every corruption, the lint
// sanitizer's first error for the thread sits at the record ValidateThread's
// error names (-1 for the thread as a whole) and carries its message, so
// the two report one first defect.
func TestSanitizeLeadsWithValidateDefect(t *testing.T) {
	for _, c := range corruptions {
		tr := validBase()
		c.mutate(tr)
		th := tr.Threads[0]
		d, ok := tr.ValidateThread(th).(trace.Defect)
		if !ok {
			t.Errorf("%s: ValidateThread's error is not a trace.Defect", c.name)
			continue
		}
		rep, err := analysis.Run(tr, analysis.Options{WarpSize: 4, Passes: []string{"sanitize"}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first, carried := -2, false
		for _, f := range rep.Findings {
			if f.Severity != analysis.SevError || f.Thread != th.TID {
				continue
			}
			if first == -2 {
				first = f.Record
			}
			carried = carried || f.Record == d.Record && f.Message == d.Msg
		}
		if first != d.Record || !carried {
			t.Errorf("%s: sanitize's first error is at record %d (defect's message reported there: %v), ValidateThread names record %d: %v",
				c.name, first, carried, d.Record, d)
		}
	}
}

// TestValidateThreadStopsAtFirstDefect: a thread defective on every record
// costs ValidateThread one defect, not one per record, while ThreadDefects
// lists them all.
func TestValidateThreadStopsAtFirstDefect(t *testing.T) {
	tr := validBase()
	th := &trace.ThreadTrace{TID: 0}
	th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
	for i := 0; i < 1000; i++ {
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 3}, nil, nil)
	}
	th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
	tr.Threads[0] = th
	n := 0
	tr.ThreadDefects(th, func(trace.Defect) { n++ })
	if n != 1000 {
		t.Fatalf("ThreadDefects reported %d defects, want 1000", n)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() { err = tr.ValidateThread(th) })
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("ValidateThread = %v, want the defect at record 1", err)
	}
	if allocs > 8 {
		t.Errorf("ValidateThread allocates %.0f times on a thread with 1000 defects; it must stop at the first", allocs)
	}
}
