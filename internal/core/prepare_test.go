package core

import (
	"fmt"
	"reflect"
	"testing"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

// entryOrderTrace is a trace of 256 threads that enter function g at
// different blocks. Thread 0 runs 400 blocks of main and never calls g, so
// while the worker that claims it is busy, other workers claim the next
// threads, and it then goes on to claim later ones. Thread 1 is the first
// to enter g, at block 2, which makes block 2 g's entry; every later thread
// enters at block 0 or 1 and runs g's last block 20 times. So the thread
// that decides the entry is seen by a worker other than the one that
// claimed thread 0, which itself sees threads that disagree.
func entryOrderTrace() *trace.Trace {
	t := &trace.Trace{Program: "entry-order", Funcs: []trace.FuncInfo{
		{Name: "main", Blocks: []trace.BlockInfo{{NInstr: 1}}},
		{Name: "g", Blocks: []trace.BlockInfo{{NInstr: 1}, {NInstr: 1}, {NInstr: 1}}},
	}}
	for tid := 0; tid < 256; tid++ {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 1}, nil, nil)
		if tid == 0 {
			for i := 0; i < 400; i++ {
				th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 1}, nil, nil)
			}
		} else {
			entry := uint32(tid % 2)
			if tid == 1 {
				entry = 2
			}
			th.Append(trace.Record{Kind: trace.KindCall, Callee: 1}, nil, nil)
			for b := entry; b < 2; b++ {
				th.Append(trace.Record{Kind: trace.KindBBL, Func: 1, Block: b, N: 1}, nil, nil)
			}
			for range 20 {
				th.Append(trace.Record{Kind: trace.KindBBL, Func: 1, Block: 2, N: 1}, nil, nil)
			}
			th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		}
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

// TestPrepareMatchesBuild: prepare builds its DCFGs on every worker and
// merges them, so its graphs and post-dominator trees must equal the serial
// cfg.Build's, and ipdom.ComputeAll's over them, at every parallelism, on
// every registered workload and on entryOrderTrace, whose function entry
// only the lowest thread index decides. Worker scheduling varies between
// runs, so entryOrderTrace is prepared several times at each parallelism.
func TestPrepareMatchesBuild(t *testing.T) {
	traces := map[string]*trace.Trace{"entry-order": entryOrderTrace()}
	for _, w := range workloads.All() {
		inst, err := w.Instantiate(workloads.Config{Seed: 1})
		if err != nil {
			t.Fatalf("instantiate %s: %v", w.Name, err)
		}
		if traces[w.Name], err = inst.Trace(); err != nil {
			t.Fatalf("trace %s: %v", w.Name, err)
		}
	}
	for name, tr := range traces {
		graphs, err := cfg.Build(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := &prep{graphs: graphs, pdoms: ipdom.ComputeAll(graphs)}
		reps := 1
		if name == "entry-order" {
			if e := graphs[1].Entry(); e != 2 {
				t.Fatalf("cfg.Build gives g entry block %d, want thread 1's block 2", e)
			}
			reps = 20
		}
		for _, par := range []int{1, 2, 4, 8} {
			for range reps {
				got, err := prepare(tr, par)
				if err != nil {
					t.Fatalf("%s at parallelism %d: %v", name, par, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s at parallelism %d: %s", name, par, prepDiff(got, want))
				}
			}
		}
	}
}

// prepDiff names the first function whose graph or tree differs.
func prepDiff(got, want *prep) string {
	if len(got.graphs) != len(want.graphs) {
		return fmt.Sprintf("%d graphs, want %d", len(got.graphs), len(want.graphs))
	}
	for fn, g := range want.graphs {
		switch h := got.graphs[fn]; {
		case h == nil:
			return fmt.Sprintf("no graph for function %d", fn)
		case h.Entry() != g.Entry():
			return fmt.Sprintf("function %d entry is block %d, want %d", fn, h.Entry(), g.Entry())
		case !reflect.DeepEqual(h, g):
			return fmt.Sprintf("function %d graph differs (%d edges, want %d)", fn, h.NumEdges(), g.NumEdges())
		case !reflect.DeepEqual(got.pdoms[fn], want.pdoms[fn]):
			return fmt.Sprintf("function %d post-dominator tree differs", fn)
		}
	}
	return "the preparations differ"
}
