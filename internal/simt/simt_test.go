package simt

import (
	"math"
	"strings"
	"testing"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
	"threadfuser/internal/warp"
)

// replayProgram traces a program and replays it with the given options.
func replayProgram(t *testing.T, prog *ir.Program, threads int, opts Options, args func(int, *vm.Thread)) *Result {
	t.Helper()
	p := vm.NewProcess(prog)
	tr, err := vm.TraceAll(p, threads, vm.RunConfig{}, args)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := cfg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	pdoms := ipdom.ComputeAll(graphs)
	warps, err := warp.Form(tr, opts.WarpSize, warp.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, graphs, pdoms, warps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lockProgram builds: lock(lockAddrs[tid]); <body> ; unlock; tail.
// The critical section is `csLen` nops.
func lockProgram(t *testing.T, csLen int) *ir.Program {
	t.Helper()
	pb := ir.NewBuilder("locks")
	f := pb.NewFunc("worker")
	pre := f.NewBlock("pre")
	cs := f.NewBlock("cs")
	tail := f.NewBlock("tail")
	// r0 = &lockAddrs array; r1 = my lock address.
	pre.Mov(ir.Rg(ir.R(1)), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8)).
		Jmp(cs)
	cs.Lock(ir.Rg(ir.R(1))).
		Nop(csLen).
		Unlock(ir.Rg(ir.R(1))).
		Jmp(tail)
	tail.Nop(4).Ret()
	return pb.MustBuild()
}

// lockSetup seeds per-thread lock addresses: tid -> locks[tid % distinct].
func lockSetup(p *vm.Process, threads, distinct int) func(int, *vm.Thread) {
	table := p.AllocGlobal(uint64(8 * threads))
	lockWords := p.AllocGlobal(uint64(8 * distinct))
	for i := 0; i < threads; i++ {
		p.WriteI64(table+uint64(8*i), int64(lockWords+uint64(8*(i%distinct))))
	}
	return func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(table))
	}
}

func TestLockEmulationOffIsFree(t *testing.T) {
	prog := lockProgram(t, 6)
	p := vm.NewProcess(prog)
	args := lockSetup(p, 8, 1)
	tr, err := vm.TraceAll(p, 8, vm.RunConfig{}, args)
	if err != nil {
		t.Fatal(err)
	}
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, 8, warp.RoundRobin)
	res, err := Replay(tr, graphs, pdoms, warps, Options{WarpSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Efficiency(); math.Abs(got-1) > 1e-12 {
		t.Errorf("efficiency without emulation = %v, want 1 (convergent code)", got)
	}
	if res.Total().LockSerializations != 0 {
		t.Error("serializations counted with emulation off")
	}
}

func TestSameLockSerializes(t *testing.T) {
	// All 8 threads take the SAME lock: the critical section serializes
	// 8-way.
	const threads, cs = 8, 6
	prog := lockProgram(t, cs)
	p := vm.NewProcess(prog)
	args := lockSetup(p, threads, 1)
	tr, _ := vm.TraceAll(p, threads, vm.RunConfig{}, args)
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, threads, warp.RoundRobin)
	res, err := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads, EmulateLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Total()
	if total.LockSerializations != 1 {
		t.Errorf("serialization events = %d, want 1", total.LockSerializations)
	}
	if total.SerializedLanes != threads-1 {
		t.Errorf("serialized lanes = %d, want %d", total.SerializedLanes, threads-1)
	}
	// The cs block (lock + nops + unlock + jmp = cs+3 instrs) issues once
	// per lane instead of once total: lockstep grows by (threads-1)*(cs+3).
	resOff, _ := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads})
	wantExtra := uint64((threads - 1) * (cs + 3))
	if got := total.Lockstep - resOff.Total().Lockstep; got != wantExtra {
		t.Errorf("serialization added %d lockstep instrs, want %d", got, wantExtra)
	}
	if res.Efficiency() >= resOff.Efficiency() {
		t.Error("serialization did not reduce efficiency")
	}
}

func TestDistinctLocksStayParallel(t *testing.T) {
	// Every thread takes a different lock: no serialization at all.
	const threads = 8
	prog := lockProgram(t, 6)
	p := vm.NewProcess(prog)
	args := lockSetup(p, threads, threads)
	tr, _ := vm.TraceAll(p, threads, vm.RunConfig{}, args)
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, threads, warp.RoundRobin)
	res, err := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads, EmulateLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total().LockSerializations != 0 {
		t.Errorf("distinct locks serialized: %+v", res.Total())
	}
	if got := res.Efficiency(); math.Abs(got-1) > 1e-12 {
		t.Errorf("efficiency = %v, want 1", got)
	}
}

func TestLockRoundsRunContendersInParallel(t *testing.T) {
	// 8 threads over 4 locks (2 contenders each): the round schedule runs
	// the 4 first-holders together, then the 4 second-holders — the
	// critical section costs 2x, not 8x.
	const threads, cs = 8, 6
	prog := lockProgram(t, cs)
	p := vm.NewProcess(prog)
	args := lockSetup(p, threads, 4)
	tr, _ := vm.TraceAll(p, threads, vm.RunConfig{}, args)
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, threads, warp.RoundRobin)
	on, err := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads, EmulateLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	off, _ := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads})
	wantExtra := uint64(cs + 3) // one extra round of the cs block
	if got := on.Total().Lockstep - off.Total().Lockstep; got != wantExtra {
		t.Errorf("4-lock/2-contender schedule added %d lockstep instrs, want %d", got, wantExtra)
	}
	if on.Total().SerializedLanes != 4 {
		t.Errorf("serialized lanes = %d, want 4 (one per contended lock)", on.Total().SerializedLanes)
	}
}

func TestReplayRejectsBadWarpSize(t *testing.T) {
	tr := &trace.Trace{Program: "x"}
	if _, err := Replay(tr, nil, nil, nil, Options{WarpSize: 0}); err == nil {
		t.Error("warp size 0 accepted")
	}
	if _, err := Replay(tr, nil, nil, nil, Options{WarpSize: 65}); err == nil {
		t.Error("warp size 65 accepted")
	}
}

// TestReplayReportsLowestFailingWarp pins the error contract of Replay at
// every worker count: when several warps fail, the lowest-numbered warp's
// failure comes back, as an error and not a panic. Warps 2 and 5 each hold
// a lane whose record stream returns from a call before reaching its next
// block, which Validate would reject and replay recovers from.
func TestReplayReportsLowestFailingWarp(t *testing.T) {
	const threads, width = 16, 2
	p := vm.NewProcess(lockProgram(t, 2))
	tr, err := vm.TraceAll(p, threads, vm.RunConfig{}, lockSetup(p, threads, threads))
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := cfg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	pdoms := ipdom.ComputeAll(graphs)
	warps, err := warp.Form(tr, width, warp.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for _, wi := range []int{2, 5} {
		src := tr.Threads[warps[wi][0]]
		th := &trace.ThreadTrace{TID: src.TID}
		for j := range src.Records {
			th.Append(src.Records[j], src.MemOf(j), src.LocksOf(j))
			if j == 0 {
				th.Append(trace.Record{Kind: trace.KindCall}, nil, nil)
				th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
			}
		}
		tr.Threads[warps[wi][0]] = th
	}
	for _, par := range []int{1, 4, 0} {
		for _, c := range []struct {
			warps []warp.Warp
			want  string
		}{
			{warps, "warp 2:"},
			{warps[3:], "warp 2:"}, // the original warp 5
		} {
			_, err := Replay(tr, graphs, pdoms, c.warps, Options{WarpSize: width, Parallelism: par})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parallelism %d over %d warps: error %v, want the failure of %s", par, len(c.warps), err, c.want)
			}
		}
	}
}

func TestResultAggregation(t *testing.T) {
	r := &Result{WarpSize: 4, Warps: []WarpMetrics{
		{Lockstep: 10, ThreadInstrs: 40}, // eff 1.0
		{Lockstep: 10, ThreadInstrs: 20}, // eff 0.5
	}}
	if got := r.Efficiency(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mean efficiency = %v, want 0.75", got)
	}
	if got := r.WeightedEfficiency(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("weighted efficiency = %v, want 0.75 (equal weights)", got)
	}
	r.Warps[1].Lockstep = 30 // eff 20/120
	wantW := 60.0 / (40 * 4)
	if got := r.WeightedEfficiency(); math.Abs(got-wantW) > 1e-12 {
		t.Errorf("weighted efficiency = %v, want %v", got, wantW)
	}
	if got := r.Efficiency(); math.Abs(got-(1.0+20.0/120)/2) > 1e-12 {
		t.Errorf("mean efficiency = %v", got)
	}
}

func TestTracedFraction(t *testing.T) {
	r := &Result{WarpSize: 4, Warps: []WarpMetrics{{Lockstep: 10, ThreadInstrs: 90}}, SkippedIO: 7, SkippedSpin: 3}
	if got := r.TracedFraction(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("traced fraction = %v, want 0.9", got)
	}
	empty := &Result{WarpSize: 4}
	if got := empty.TracedFraction(); got != 1 {
		t.Errorf("empty traced fraction = %v, want 1", got)
	}
}

func TestFuncMetricsEfficiency(t *testing.T) {
	fm := &FuncMetrics{Lockstep: 10, ThreadInstrs: 25}
	if got := fm.Efficiency(5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("func efficiency = %v, want 0.5", got)
	}
	if got := (&FuncMetrics{}).Efficiency(5); got != 0 {
		t.Errorf("empty func efficiency = %v, want 0", got)
	}
}

func TestListenerSeesAllBlocks(t *testing.T) {
	prog := lockProgram(t, 2)
	counter := &countingListener{}
	p := vm.NewProcess(prog)
	args := lockSetup(p, 4, 4)
	tr, _ := vm.TraceAll(p, 4, vm.RunConfig{}, args)
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, 4, warp.RoundRobin)
	res, err := Replay(tr, graphs, pdoms, warps, Options{WarpSize: 4, Listener: counter})
	if err != nil {
		t.Fatal(err)
	}
	// Each listener call is one lockstep block execution; the per-block
	// instruction sum must equal the lockstep total.
	if counter.instrs != res.Total().Lockstep {
		t.Errorf("listener saw %d lockstep instrs, metrics say %d", counter.instrs, res.Total().Lockstep)
	}
	if counter.calls == 0 {
		t.Error("listener never called")
	}
}

type countingListener struct {
	calls  int
	instrs uint64
}

func (c *countingListener) OnBlock(be *BlockExec) {
	c.calls++
	c.instrs += be.N
}

func TestLockReconvergencePolicies(t *testing.T) {
	// With the release policy, serialization covers only the critical
	// section; with function-exit it covers the rest of the function, so
	// lockstep issues must be strictly higher and efficiency lower.
	const threads, cs = 8, 6
	prog := lockProgram(t, cs)
	p := vm.NewProcess(prog)
	args := lockSetup(p, threads, 1)
	tr, _ := vm.TraceAll(p, threads, vm.RunConfig{}, args)
	graphs, _ := cfg.Build(tr)
	pdoms := ipdom.ComputeAll(graphs)
	warps, _ := warp.Form(tr, threads, warp.RoundRobin)

	release, err := Replay(tr, graphs, pdoms, warps, Options{
		WarpSize: threads, EmulateLocks: true, LockReconvergence: ReconvergeAtRelease,
	})
	if err != nil {
		t.Fatal(err)
	}
	exit, err := Replay(tr, graphs, pdoms, warps, Options{
		WarpSize: threads, EmulateLocks: true, LockReconvergence: ReconvergeAtFunctionExit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exit.Total().Lockstep <= release.Total().Lockstep {
		t.Errorf("function-exit policy lockstep %d not above release policy %d",
			exit.Total().Lockstep, release.Total().Lockstep)
	}
	if exit.Efficiency() >= release.Efficiency() {
		t.Errorf("function-exit efficiency %v not below release %v",
			exit.Efficiency(), release.Efficiency())
	}
	// Function-exit serializes the cs block AND the tail block per lane:
	// extra = (threads-1) * (cs+3 + tail(5)).
	wantExtra := uint64((threads - 1) * (cs + 3 + 5))
	off, _ := Replay(tr, graphs, pdoms, warps, Options{WarpSize: threads})
	if got := exit.Total().Lockstep - off.Total().Lockstep; got != wantExtra {
		t.Errorf("function-exit added %d lockstep instrs, want %d", got, wantExtra)
	}
}
