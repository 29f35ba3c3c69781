// A/B equivalence suite for the lockstep-fusion fast path: every workload,
// every warp width × formation cell, replayed fused (with the static uniform
// oracle feeding window proposals) and with DisableLockstepFusion, must give
// reflect.DeepEqual Results — including the MemSites transaction histograms,
// the metric most sensitive to the fused coalescing math.
//
// The file lives in the external test package because workloads imports simt;
// it builds its own vm programs for the fusion edge cases rather than sharing
// the in-package helpers.
package simt_test

import (
	"reflect"
	"testing"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/ir"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

// fusionWidths is the full warp-width axis; -short trims it to the three
// regimes (degenerate, partial-warp, full-warp) to keep the suite quick.
func fusionWidths(t *testing.T) []int {
	if testing.Short() {
		return []int{1, 4, 32}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

var fusionFormations = []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry}

// assertFusionAB replays one (trace, warps, opts) cell fused and per-block
// and fails unless the Results are bit-identical.
func assertFusionAB(t *testing.T, tr *trace.Trace, graphs map[uint32]*cfg.DCFG, pdoms map[uint32]*ipdom.PostDom, warps []warp.Warp, opts simt.Options) {
	t.Helper()
	fused, err := simt.Replay(tr, graphs, pdoms, warps, opts)
	if err != nil {
		t.Fatalf("fused replay (%+v): %v", opts, err)
	}
	off := opts
	off.DisableLockstepFusion = true
	stepped, err := simt.Replay(tr, graphs, pdoms, warps, off)
	if err != nil {
		t.Fatalf("per-block replay (%+v): %v", off, err)
	}
	if !reflect.DeepEqual(fused, stepped) {
		t.Errorf("warp=%d locks=%v: fused and per-block Results differ\nfused total:   %+v\nstepped total: %+v",
			opts.WarpSize, opts.EmulateLocks, fused.Total(), stepped.Total())
		return
	}
	// DeepEqual already covers MemSites; assert the map is populated when the
	// trace has memory so equality can't pass vacuously on both being empty.
	if len(fused.MemSites) == 0 {
		for _, th := range tr.Threads {
			if len(th.Mem) > 0 {
				t.Errorf("warp=%d: trace has memory accesses but MemSites is empty", opts.WarpSize)
				return
			}
		}
	}
}

// TestFusionMatchesSteppedAllWorkloads sweeps every registered workload at
// its reduced default scale through the full width × formation matrix, plus
// a locks cell at full warp width, comparing fused vs per-block replay.
func TestFusionMatchesSteppedAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.Instantiate(workloads.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			graphs, err := cfg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			pdoms := ipdom.ComputeAll(graphs)
			for _, width := range fusionWidths(t) {
				for _, form := range fusionFormations {
					warps, err := warp.Form(tr, width, form)
					if err != nil {
						t.Fatal(err)
					}
					assertFusionAB(t, tr, graphs, pdoms, warps,
						simt.Options{WarpSize: width})
				}
			}
			// Lock emulation changes the replay's control flow (serialization
			// splits); one full-width cell bounds the cost of the dimension.
			warps, err := warp.Form(tr, 32, warp.RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			assertFusionAB(t, tr, graphs, pdoms, warps,
				simt.Options{WarpSize: 32, EmulateLocks: true})
		})
	}
}

// fusionEdgeProgram is the parametric program behind the fusion edge-case
// seeds and fuzzer. Shape:
//
//	entry:  parity-branch on r2 (per-thread) — warps split before the call
//	odd:    nops, call worker        ┐ function entered with a divergent
//	even:   nop,  call worker        ┘ context (split mask, two call sites)
//	worker: head → body loop (store through a TID-indexed table, trip count
//	        in r1, per-thread) → cs (lock r3 / nops / unlock mid-function,
//	        breaking uniform runs at the acquire) → ret
//	join/tail: reconverge; tail makes nine stores, more than a control
//	        word's access count field holds, and tail2 one more, so a
//	        converged window charges an access list past the saturated
//	        field and then the list after it
//
// Per-thread trip counts drive mask narrowing (a lone lane looping after the
// rest exit), and the lock-address table drives contention.
func fusionEdgeProgram(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewBuilder("fusionedge")
	mainf := pb.NewFunc("main")
	workf := pb.NewFunc("worker")

	entry := mainf.NewBlock("entry")
	odd := mainf.NewBlock("odd")
	even := mainf.NewBlock("even")
	joinO := mainf.NewBlock("join_odd")
	joinE := mainf.NewBlock("join_even")
	tail := mainf.NewBlock("tail")
	tail2 := mainf.NewBlock("tail2")
	entry.Test(ir.Rg(ir.R(2)), ir.Imm(1)).Jcc(ir.CondNE, odd, even)
	odd.Nop(3).Call(workf, joinO)
	even.Nop(1).Call(workf, joinE)
	joinO.Jmp(tail)
	joinE.Jmp(tail)
	slot := ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8)
	for range 9 {
		tail.Mov(slot, ir.Rg(ir.R(2)))
	}
	tail.Jmp(tail2)
	tail2.Mov(slot, ir.Rg(ir.R(2))).Nop(4).Ret()

	head := workf.NewBlock("head")
	body := workf.NewBlock("body")
	cs := workf.NewBlock("cs")
	done := workf.NewBlock("done")
	head.Nop(1).Jmp(body)
	body.Mov(ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8), ir.Rg(ir.R(1))).
		Sub(ir.Rg(ir.R(1)), ir.Imm(1)).
		Cmp(ir.Rg(ir.R(1)), ir.Imm(0)).
		Jcc(ir.CondGT, body, cs)
	// The acquire sits mid-block after plain work: a warp-uniform run reaches
	// it inside a fused window and must fall back to stepped execution there.
	cs.Nop(2).Lock(ir.Rg(ir.R(3))).Nop(3).Unlock(ir.Rg(ir.R(3))).Nop(1).Jmp(done)
	done.Ret()
	return pb.MustBuild()
}

// traceFusionEdge instantiates fusionEdgeProgram for nthreads with trip
// counts drawn from tripBits (3 bits per thread, +1) and locks shared
// distinct-ways, then traces it.
func traceFusionEdge(t testing.TB, nthreads int, tripOf func(tid int) int64, distinct int) *trace.Trace {
	t.Helper()
	prog := fusionEdgeProgram(t)
	p := vm.NewProcess(prog)
	table := p.AllocGlobal(uint64(8 * nthreads))
	lockWords := p.AllocGlobal(uint64(8 * distinct))
	tr, err := vm.TraceAll(p, nthreads, vm.RunConfig{}, func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(table))
		th.SetReg(ir.R(1), tripOf(tid))
		th.SetReg(ir.R(2), int64(tid))
		th.SetReg(ir.R(3), int64(lockWords+uint64(8*(tid%distinct))))
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fusionEdgeAB runs the shared fuzz/seed body: trace the parametric edge
// program and assert fused == per-block at the given width, with and without
// lock emulation.
func fusionEdgeAB(t *testing.T, width uint8, tripBits uint64, distinct uint8) {
	t.Helper()
	w := int(width)
	if w < 1 {
		w = 1
	}
	if w > simt.MaxWarpSize {
		w = simt.MaxWarpSize
	}
	d := int(distinct)%4 + 1
	const nthreads = 16
	tripOf := func(tid int) int64 { return int64((tripBits>>(uint(tid%16)*3))&7) + 1 }
	tr := traceFusionEdge(t, nthreads, tripOf, d)
	graphs, err := cfg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	pdoms := ipdom.ComputeAll(graphs)
	warps, err := warp.Form(tr, w, warp.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for _, locks := range []bool{false, true} {
		assertFusionAB(t, tr, graphs, pdoms, warps, simt.Options{WarpSize: w, EmulateLocks: locks})
	}
}

// fusionEdgeSeeds are the three hand-picked fusion edge cases from the
// fast path's fallback analysis; they run as deterministic tests and seed
// FuzzFusionReplay.
var fusionEdgeSeeds = []struct {
	name     string
	width    uint8
	tripBits uint64
	distinct uint8
}{
	// Every thread loops identically and contends on ONE lock: the uniform
	// run is broken mid-block by the acquire in cs.
	{"uniform-run-broken-by-lock", 8, 0x2492492492492492, 0},
	// Thread 0 gets trip count 8, the rest 1: after one iteration the loop
	// mask narrows to a single lane, the regime where fused accumulator
	// scaling must agree with lone-lane stepped execution.
	{"mask-narrows-to-one-lane", 8, 0x7, 3},
	// Odd/even parity split before the call: worker is entered with a
	// divergent context from two call sites, so fused windows start under a
	// partial mask inside a callee.
	{"divergent-context-function-entry", 4, 0x1249249249249249, 1},
}

func TestFusionEdgeCases(t *testing.T) {
	for _, s := range fusionEdgeSeeds {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			fusionEdgeAB(t, s.width, s.tripBits, s.distinct)
		})
	}
}

// FuzzFusionReplay fuzzes the fusion fast path's fallback boundaries: warp
// width, the per-thread loop trip counts, and lock sharing all come from the
// fuzzer, and any divergence between fused and per-block Results fails.
func FuzzFusionReplay(f *testing.F) {
	for _, s := range fusionEdgeSeeds {
		f.Add(s.width, s.tripBits, s.distinct)
	}
	f.Fuzz(func(t *testing.T, width uint8, tripBits uint64, distinct uint8) {
		fusionEdgeAB(t, width, tripBits, distinct)
	})
}
