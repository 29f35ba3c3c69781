package simt

import (
	"reflect"
	"testing"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/ir"
	"threadfuser/internal/vm"
	"threadfuser/internal/warp"
)

// batchLoopProgram builds a loop whose trip count is per-thread (register
// r1): long convergent same-block runs when counts agree, loop-exit
// divergence when they differ. The body stores through a TID-indexed
// address so memory-coalescing metrics are exercised too, and the tail's
// untraced IO region exercises skip accounting around run boundaries.
func batchLoopProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewBuilder("batchloop")
	f := pb.NewFunc("worker")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	tail := f.NewBlock("tail")
	head.Nop(1).Jmp(body)
	body.Mov(ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8), ir.Rg(ir.R(1))).
		Sub(ir.Rg(ir.R(1)), ir.Imm(1)).
		Cmp(ir.Rg(ir.R(1)), ir.Imm(0)).
		Jcc(ir.CondGT, body, tail)
	tail.IO(5).Nop(2).Ret()
	return pb.MustBuild()
}

// TestBatchedReplayMatchesStepped pins the default replay, which executes
// converged runs as fused record batches, to the stepped replay
// (DisableLockstepFusion) across the interesting regimes: uniform long runs,
// divergent loop trip counts, and contended critical-section serialization
// under both lock reconvergence policies.
func TestBatchedReplayMatchesStepped(t *testing.T) {
	const threads = 8
	cases := []struct {
		name  string
		build func(t *testing.T) (*vm.Process, func(int, *vm.Thread))
		opts  []Options
	}{
		{
			name: "uniform-runs",
			build: func(t *testing.T) (*vm.Process, func(int, *vm.Thread)) {
				p := vm.NewProcess(batchLoopProgram(t))
				table := p.AllocGlobal(8 * threads)
				return p, func(tid int, th *vm.Thread) {
					th.SetReg(ir.R(0), int64(table))
					th.SetReg(ir.R(1), 100) // same trip count: one long run
				}
			},
			opts: []Options{{WarpSize: threads}, {WarpSize: threads, EmulateLocks: true}},
		},
		{
			name: "divergent-trip-counts",
			build: func(t *testing.T) (*vm.Process, func(int, *vm.Thread)) {
				p := vm.NewProcess(batchLoopProgram(t))
				table := p.AllocGlobal(8 * threads)
				return p, func(tid int, th *vm.Thread) {
					th.SetReg(ir.R(0), int64(table))
					th.SetReg(ir.R(1), int64(tid%5+1))
				}
			},
			opts: []Options{{WarpSize: threads}, {WarpSize: 4}},
		},
		{
			name: "contended-locks",
			build: func(t *testing.T) (*vm.Process, func(int, *vm.Thread)) {
				p := vm.NewProcess(lockProgram(t, 6))
				return p, lockSetup(p, threads, 2)
			},
			opts: []Options{
				{WarpSize: threads, EmulateLocks: true},
				{WarpSize: threads, EmulateLocks: true, LockReconvergence: ReconvergeAtFunctionExit},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, args := tc.build(t)
			tr, err := vm.TraceAll(p, threads, vm.RunConfig{}, args)
			if err != nil {
				t.Fatal(err)
			}
			graphs, err := cfg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			pdoms := ipdom.ComputeAll(graphs)
			for _, opts := range tc.opts {
				warps, err := warp.Form(tr, opts.WarpSize, warp.RoundRobin)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := Replay(tr, graphs, pdoms, warps, opts)
				if err != nil {
					t.Fatal(err)
				}
				stepped := opts
				stepped.DisableLockstepFusion = true
				want, err := Replay(tr, graphs, pdoms, warps, stepped)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batched, want) {
					t.Errorf("%+v: batched and stepped replays diverge\nbatched total: %+v\nstepped total: %+v",
						opts, batched.Total(), want.Total())
				}
			}
		})
	}
}
