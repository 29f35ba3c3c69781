package check

import (
	"fmt"
	"math/rand"

	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// Generate builds a random, always-valid multi-threaded trace from a seed.
// The same seed yields the same trace on every run, so tfcheck failures are
// reproducible from the seed alone. Generated traces exercise every record
// kind: nested calls, data-dependent block walks, per-instruction memory
// accesses across all three segments, balanced and deliberately unbalanced
// lock pairs, and skip records.
func Generate(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &trace.Trace{Program: fmt.Sprintf("gen-%d", seed)}

	nf := 1 + rng.Intn(3)
	for f := 0; f < nf; f++ {
		nb := 1 + rng.Intn(4)
		fi := trace.FuncInfo{Name: fmt.Sprintf("g%d", f)}
		for b := 0; b < nb; b++ {
			fi.Blocks = append(fi.Blocks, trace.BlockInfo{NInstr: uint32(1 + rng.Intn(6))})
		}
		t.Funcs = append(t.Funcs, fi)
	}

	nthreads := 1 + rng.Intn(5)
	for tid := 0; tid < nthreads; tid++ {
		g := &genThread{rng: rng, funcs: t.Funcs, th: &trace.ThreadTrace{TID: tid}}
		g.invoke(0, 0)
		t.Threads = append(t.Threads, g.th)
	}
	if err := t.Validate(); err != nil {
		// The generator's contract is validity; a failure here is a bug in
		// the generator itself, not in the system under test.
		panic(fmt.Sprintf("check: generated trace invalid (seed %d): %v", seed, err))
	}
	return t
}

type genThread struct {
	rng   *rand.Rand
	funcs []trace.FuncInfo
	th    *trace.ThreadTrace
}

// invoke emits one balanced call..ret invocation of fn, with random block
// executions, nested calls, memory, locks and skips in between.
func (g *genThread) invoke(fn uint32, depth int) {
	g.th.Append(trace.Record{Kind: trace.KindCall, Callee: fn}, nil, nil)
	blocks := g.funcs[fn].Blocks
	steps := 1 + g.rng.Intn(4)
	for s := 0; s < steps; s++ {
		b := uint32(g.rng.Intn(len(blocks)))
		n := uint64(blocks[b].NInstr)
		var mem []trace.MemAccess
		var locks []trace.LockOp
		if g.rng.Intn(2) == 0 {
			mem = g.mem(n)
		}
		if g.rng.Intn(4) == 0 {
			locks = g.locks(n)
		}
		g.th.Append(trace.Record{Kind: trace.KindBBL, Func: fn, Block: b, N: n}, mem, locks)
		if depth < 2 && g.rng.Intn(4) == 0 {
			g.invoke(uint32(g.rng.Intn(len(g.funcs))), depth+1)
		}
		if g.rng.Intn(8) == 0 {
			kind := trace.SkipIO
			if g.rng.Intn(2) == 0 {
				kind = trace.SkipSpin
			}
			g.th.Append(trace.Record{Kind: trace.KindSkip, SkipKind: kind, N: uint64(1 + g.rng.Intn(20))}, nil, nil)
		}
	}
	g.th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
}

// mem emits 1-3 accesses at random instruction indices of an n-instruction
// block, mixing segments, sizes and strides (including per-thread stack
// addresses and deliberately unaligned sector-crossing accesses).
func (g *genThread) mem(n uint64) []trace.MemAccess {
	count := 1 + g.rng.Intn(3)
	out := make([]trace.MemAccess, 0, count)
	sizes := []uint8{1, 2, 4, 8}
	for i := 0; i < count; i++ {
		var base uint64
		switch g.rng.Intn(3) {
		case 0:
			base = vm.GlobalBase
		case 1:
			base = vm.HeapBase
		default:
			base = vm.StackBase + uint64(g.th.TID)*4096
		}
		out = append(out, trace.MemAccess{
			Instr: uint16(g.rng.Int63n(int64(n))),
			Addr:  base + uint64(g.rng.Intn(512)),
			Size:  sizes[g.rng.Intn(len(sizes))],
			Store: g.rng.Intn(2) == 0,
		})
	}
	return out
}

// locks emits a lock pattern within one block: usually a balanced
// acquire/release of a shared address, occasionally an unbalanced acquire, a
// bare release, a recursive double-acquire, or a two-lock nesting whose
// order flips with the thread id — the seed shapes the lock-order and
// "staticlockset" checks (and their delta-debug shrinks) need to see.
func (g *genThread) locks(n uint64) []trace.LockOp {
	addr := vm.GlobalBase + 1024 + 64*uint64(g.rng.Intn(3))
	acq := uint16(g.rng.Int63n(int64(n)))
	switch g.rng.Intn(10) {
	case 0: // acquire without release (leak)
		return []trace.LockOp{{Instr: acq, Addr: addr}}
	case 1: // bare release
		return []trace.LockOp{{Instr: acq, Addr: addr, Release: true}}
	case 2: // recursive: acquire twice, release twice (depth bookkeeping)
		return []trace.LockOp{
			{Instr: acq, Addr: addr},
			{Instr: acq, Addr: addr},
			{Instr: acq, Addr: addr, Release: true},
			{Instr: acq, Addr: addr, Release: true},
		}
	case 3: // tid-flipped nesting of two fixed words: seeds order cycles
		a := vm.GlobalBase + 1024
		b := vm.GlobalBase + 1088
		if g.th.TID%2 == 1 {
			a, b = b, a
		}
		return []trace.LockOp{
			{Instr: acq, Addr: a},
			{Instr: acq, Addr: b},
			{Instr: acq, Addr: b, Release: true},
			{Instr: acq, Addr: a, Release: true},
		}
	default:
		rel := acq
		if uint64(acq)+1 < n {
			rel = acq + uint16(1+g.rng.Int63n(int64(n-uint64(acq)-1)))
		}
		return []trace.LockOp{{Instr: acq, Addr: addr}, {Instr: rel, Addr: addr, Release: true}}
	}
}
