package cfg

import (
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// mkThread builds a thread from records through ThreadTrace.Append.
func mkThread(tid int, recs ...trace.Record) *trace.ThreadTrace {
	th := &trace.ThreadTrace{TID: tid}
	for _, r := range recs {
		th.Append(r, nil, nil)
	}
	return th
}

// mkTrace assembles a minimal trace with one function of nblocks and the
// given per-thread block sequences (call/ret wrapped automatically).
func mkTrace(nblocks int, threads ...[]uint32) *trace.Trace {
	fi := trace.FuncInfo{Name: "f"}
	for i := 0; i < nblocks; i++ {
		fi.Blocks = append(fi.Blocks, trace.BlockInfo{NInstr: 1})
	}
	t := &trace.Trace{Program: "t", Funcs: []trace.FuncInfo{fi}}
	for tid, seq := range threads {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		for _, b := range seq {
			th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: b, N: 1}, nil, nil)
		}
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

func TestBuildDiamond(t *testing.T) {
	// Thread 0: 0->1->3, thread 1: 0->2->3.
	tr := mkTrace(4, []uint32{0, 1, 3}, []uint32{0, 2, 3})
	gs, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0]
	if g == nil {
		t.Fatal("missing graph for function 0")
	}
	exit := g.ExitNode()
	wantEdges := [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, exit}}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %d->%d", e[0], e[1])
		}
	}
	if g.NumEdges() != len(wantEdges) {
		t.Errorf("edges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
	if g.Entry() != 0 {
		t.Errorf("entry = %d, want 0", g.Entry())
	}
}

func TestBuildMergesThreadsWithoutDuplicates(t *testing.T) {
	tr := mkTrace(2, []uint32{0, 1}, []uint32{0, 1}, []uint32{0, 1})
	gs, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0]
	if g.NumEdges() != 2 { // 0->1, 1->exit
		t.Errorf("edges = %d, want 2 (deduplicated)", g.NumEdges())
	}
}

func TestBuildLoopEdge(t *testing.T) {
	tr := mkTrace(2, []uint32{0, 0, 0, 1})
	gs, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0]
	if !g.HasEdge(0, 0) {
		t.Error("missing self-loop edge")
	}
	if !g.HasEdge(1, g.ExitNode()) {
		t.Error("missing exit edge")
	}
}

func TestBuildPerFunctionGraphsAcrossCalls(t *testing.T) {
	// caller (f0): block 0 calls f1, resumes in block 1.
	t1 := &trace.Trace{
		Program: "t",
		Funcs: []trace.FuncInfo{
			{Name: "caller", Blocks: []trace.BlockInfo{{NInstr: 1}, {NInstr: 1}}},
			{Name: "leaf", Blocks: []trace.BlockInfo{{NInstr: 1}}},
		},
		Threads: []*trace.ThreadTrace{mkThread(0,
			trace.Record{Kind: trace.KindCall, Callee: 0},
			trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 1},
			trace.Record{Kind: trace.KindCall, Callee: 1},
			trace.Record{Kind: trace.KindBBL, Func: 1, Block: 0, N: 1},
			trace.Record{Kind: trace.KindRet},
			trace.Record{Kind: trace.KindBBL, Func: 0, Block: 1, N: 1},
			trace.Record{Kind: trace.KindRet},
		)},
	}
	gs, err := Build(t1)
	if err != nil {
		t.Fatal(err)
	}
	caller, leaf := gs[0], gs[1]
	// The call is "inlined away": caller block 0 flows to block 1, and the
	// leaf has its own single-block graph.
	if !caller.HasEdge(0, 1) {
		t.Error("caller missing call-continuation edge 0->1")
	}
	if caller.HasEdge(0, caller.ExitNode()) {
		t.Error("caller block 0 wrongly flows to exit")
	}
	if !leaf.HasEdge(0, leaf.ExitNode()) {
		t.Error("leaf missing exit edge")
	}
}

// TestBuildRejectsMalformedStreams: Build validates the trace first, so a
// stream whose frames are broken fails with the validator's defect.
func TestBuildRejectsMalformedStreams(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []trace.Record
		want string
	}{
		{"block before any call", []trace.Record{
			{Kind: trace.KindBBL, Func: 0, Block: 0, N: 1},
		}, "block outside any function invocation"},
		{"unterminated invocation", []trace.Record{
			{Kind: trace.KindCall, Callee: 0},
			{Kind: trace.KindBBL, Func: 0, Block: 0, N: 1},
		}, "unbalanced call depth 1"},
	} {
		bad := &trace.Trace{
			Program: "t",
			Funcs:   []trace.FuncInfo{{Name: "f", Blocks: []trace.BlockInfo{{NInstr: 1}}}},
			Threads: []*trace.ThreadTrace{mkThread(0, c.recs...)},
		}
		_, err := Build(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestStaticMatchesDynamicWhenFullyCovered(t *testing.T) {
	// Build a program whose every edge is exercised; the dynamic DCFG must
	// equal the static CFG.
	pb := ir.NewBuilder("cover")
	f := pb.NewFunc("worker")
	b0 := f.NewBlock("b0")
	b1 := f.NewBlock("b1")
	b2 := f.NewBlock("b2")
	b3 := f.NewBlock("b3")
	b0.Mov(ir.Rg(ir.R(0)), ir.Rg(ir.TID)).
		And(ir.Rg(ir.R(0)), ir.Imm(1)).
		Cmp(ir.Rg(ir.R(0)), ir.Imm(0)).
		Jcc(ir.CondEQ, b1, b2)
	b1.Nop(1).Jmp(b3)
	b2.Nop(1).Jmp(b3)
	b3.Ret()
	prog := pb.MustBuild()

	static := FromProgram(prog)[0]
	p := vm.NewProcess(prog)
	tr, err := vm.TraceAll(p, 4, vm.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	g := dyn[0]
	if g.NumEdges() != static.NumEdges() {
		t.Fatalf("dynamic edges %d != static %d", g.NumEdges(), static.NumEdges())
	}
	for b := int32(0); b <= int32(g.NBlocks); b++ {
		for _, s := range static.Succs(b) {
			if !g.HasEdge(b, s) {
				t.Errorf("dynamic graph missing static edge %d->%d", b, s)
			}
		}
	}
}

func TestStaticCFGTerminators(t *testing.T) {
	pb := ir.NewBuilder("term")
	callee := pb.NewFunc("callee")
	callee.NewBlock("c").Ret()
	f := pb.NewFunc("worker")
	pb.SetEntry(f)
	b0 := f.NewBlock("b0")
	b1 := f.NewBlock("b1")
	b2 := f.NewBlock("b2")
	b3 := f.NewBlock("b3")
	b0.Switch(ir.Rg(ir.TID), b1, b2)
	b1.Call(callee, b3)
	b2.Jmp(b3)
	b3.Ret()
	prog := pb.MustBuild()

	g := FromFunction(prog.FuncByName("worker"))
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Error("switch edges missing")
	}
	if !g.HasEdge(1, 3) {
		t.Error("call continuation edge missing")
	}
	if !g.HasEdge(3, g.ExitNode()) {
		t.Error("ret edge missing")
	}
	// The callee's graph is separate.
	cg := FromFunction(prog.FuncByName("callee"))
	if cg.NumNodes() != 2 || !cg.HasEdge(0, cg.ExitNode()) {
		t.Error("callee graph malformed")
	}
}

// TestMergeMatchesBuild splits one trace's threads over three Builders in
// every possible way, adds each Builder's threads under their trace
// indices in ascending and in descending order, merges the Builders
// forwards and backwards, and requires Build's graphs every time. The
// threads enter the function at blocks 3, 2, 0, 1 and 0, so only the
// lowest-indexed thread's block, 3, is Build's entry: a merge that kept the
// first entry it met, or a Builder's first add, would report another.
func TestMergeMatchesBuild(t *testing.T) {
	tr := mkTrace(4, []uint32{3}, []uint32{2, 3}, []uint32{0, 1, 3}, []uint32{1, 3}, []uint32{0, 2, 3})
	want, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if e := want[0].Entry(); e != 3 {
		t.Fatalf("Build's entry is block %d, want thread 0's block 3", e)
	}
	n := len(tr.Threads)
	for split := 0; split < 243; split++ { // 3^5 assignments of 5 threads
		for _, reverse := range []bool{false, true} {
			parts := make([]*Builder, 3)
			for j := range parts {
				parts[j] = NewBuilder(tr.Funcs)
			}
			for k := 0; k < n; k++ {
				i := k
				if reverse {
					i = n - 1 - k
				}
				owner := split
				for range i {
					owner /= 3
				}
				parts[owner%3].Add(i, tr.Threads[i])
			}
			b := NewBuilder(tr.Funcs)
			for j := range parts {
				if reverse {
					j = len(parts) - 1 - j
				}
				b.Merge(parts[j])
			}
			if got := b.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("split %d (reverse %v): merged graphs differ from Build: entry %d, %d edges; want entry %d, %d edges",
					split, reverse, got[0].Entry(), got[0].NumEdges(), want[0].Entry(), want[0].NumEdges())
			}
		}
	}
}
