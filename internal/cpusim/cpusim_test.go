package cpusim

import (
	"testing"

	"threadfuser/internal/trace"
)

// mkTrace builds a trace with n threads, each executing `blocks` basic
// blocks of `ninstr` instructions, optionally touching memory.
func mkTrace(n, blocks, ninstr int, memStride uint64) *trace.Trace {
	t := &trace.Trace{
		Program: "t",
		Funcs:   []trace.FuncInfo{{Name: "f", Blocks: []trace.BlockInfo{{NInstr: uint32(ninstr)}}}},
	}
	for tid := 0; tid < n; tid++ {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		for b := 0; b < blocks; b++ {
			var mem []trace.MemAccess
			if memStride > 0 {
				mem = []trace.MemAccess{{
					Instr: 0,
					Addr:  uint64(tid*blocks+b) * memStride,
					Size:  8,
				}}
			}
			th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: uint64(ninstr)}, mem, nil)
		}
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

func TestComputeBoundScaling(t *testing.T) {
	cfg := Xeon20()
	tr := mkTrace(20, 100, 10, 0) // pure compute, one thread per core
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 threads on 20 cores: makespan = one thread's cycles = 1000/IPC.
	want := uint64(100 * 10 / cfg.IPC)
	if res.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Cycles, want)
	}
	// Double the threads: two per core, double the time.
	res2, err := Run(mkTrace(40, 100, 10, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != 2*want {
		t.Errorf("40-thread cycles = %d, want %d", res2.Cycles, 2*want)
	}
}

func TestMemoryPenalties(t *testing.T) {
	cfg := Xeon20()
	hot := mkTrace(4, 200, 4, 0)     // no memory
	cold := mkTrace(4, 200, 4, 4096) // one cold miss per block
	rh, err := Run(hot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(cold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cycles <= rh.Cycles {
		t.Errorf("cold-miss trace (%d cycles) not slower than compute trace (%d)", rc.Cycles, rh.Cycles)
	}
	if rc.DRAMBytes == 0 {
		t.Error("cold misses produced no DRAM traffic")
	}
	if rc.L1HitRate > 0.1 {
		t.Errorf("page-strided accesses should miss; L1 hit rate %.2f", rc.L1HitRate)
	}
}

func TestCacheLocality(t *testing.T) {
	cfg := Xeon20()
	// Stride 8 within lines: 4 accesses per 32B line -> 75% hits.
	local := mkTrace(1, 400, 4, 8)
	res, err := Run(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1HitRate < 0.7 {
		t.Errorf("line-local accesses hit rate %.2f, want ~0.75", res.L1HitRate)
	}
}

func TestBandwidthBound(t *testing.T) {
	cfg := Xeon20()
	cfg.DRAMBytesPerClk = 0.25 // strangle the memory pipe
	tr := mkTrace(20, 100, 2, 4096)
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 threads x 100 misses x 32B at 0.25 B/clk = 256000 cycles floor.
	if res.Cycles < 256000 {
		t.Errorf("bandwidth bound not enforced: %d cycles", res.Cycles)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(mkTrace(1, 1, 1, 0), Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestSkippedInstructionsExcluded(t *testing.T) {
	cfg := Xeon20()
	tr := mkTrace(1, 10, 10, 0)
	withSkips := mkTrace(1, 10, 10, 0)
	withSkips.Threads[0].Records = append(withSkips.Threads[0].Records,
		trace.Record{Kind: trace.KindSkip, SkipKind: trace.SkipIO, N: 100000})
	a, _ := Run(tr, cfg)
	b, _ := Run(withSkips, cfg)
	if a.Cycles != b.Cycles {
		t.Errorf("skipped instructions changed CPU time: %d vs %d", a.Cycles, b.Cycles)
	}
}
