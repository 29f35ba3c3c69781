package staticlock

import (
	"bytes"
	"encoding/json"
	"testing"

	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
	"threadfuser/internal/workloads"
)

// TestSymbolicShapes checks the phase-1 address algebra end to end: linear
// register arithmetic over arg/tid roots must surface as canonical shape
// strings at lock sites and memory accesses.
func TestSymbolicShapes(t *testing.T) {
	pb := ir.NewBuilder("shapes")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	b0 := f.NewBlock("entry")
	b0.Mov(ir.Rg(ir.R(1)), ir.Rg(ir.R(0)))                       // r1 = arg0
	b0.Add(ir.Rg(ir.R(1)), ir.Imm(8))                            // r1 = arg0+8
	b0.Lea(ir.R(3), ir.MemIdx(ir.R(1), ir.TID, 8, 16, 8))        // r3 = arg0+8*tid+24
	b0.Lock(ir.Rg(ir.R(3)))                                      // lock arg0+8*tid+0x18
	b0.Mov(ir.Mem(ir.R(3), 0, 8), ir.Imm(1))                     // store through it
	b0.Mov(ir.MemIdx(ir.R(0), ir.R(9), 1, 0, 8), ir.Rg(ir.R(1))) // r9 is a raw arg root
	b0.Unlock(ir.Rg(ir.R(3)))
	b0.Ret()
	p := pb.MustBuild()

	r := Analyze(p)
	if len(r.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(r.Sites))
	}
	const want = "arg0+8*tid+0x18"
	if r.Sites[0].Shape != want || r.Sites[1].Shape != want {
		t.Fatalf("lock shapes = %q/%q, want %q", r.Sites[0].Shape, r.Sites[1].Shape, want)
	}
	if r.Sites[0].Release || !r.Sites[1].Release {
		t.Fatalf("release flags = %v/%v, want false/true", r.Sites[0].Release, r.Sites[1].Release)
	}
	if len(r.Accesses) != 2 {
		t.Fatalf("accesses = %d, want 2", len(r.Accesses))
	}
	if got := r.Accesses[0].Shape; got != want {
		t.Errorf("store shape = %q, want %q", got, want)
	}
	// The store under the lock must carry the lock in its must-lockset.
	if len(r.Accesses[0].MustLocks) != 1 || r.Accesses[0].MustLocks[0] != want {
		t.Errorf("must locks = %v, want [%s]", r.Accesses[0].MustLocks, want)
	}
	if got := r.Accesses[1].Shape; got != "arg0+arg9" {
		t.Errorf("indexed shape = %q, want arg0+arg9", got)
	}
}

func lin(c int64, ts ...term) symval {
	sortTerms(ts)
	return symval{kind: symLin, c: c, terms: ts}
}

func TestAliasable(t *testing.T) {
	arg0 := root{kind: rootArg, reg: 0}
	arg1 := root{kind: rootArg, reg: 1}
	tid := root{kind: rootTID}
	cases := []struct {
		name string
		a, b symval
		want bool
	}{
		{"top merges all", top, lin(0, term{arg0, 1}), true},
		{"named distinct consts", symConst(0x100), symConst(0x108), false},
		{"distinct arg roots", lin(0, term{arg0, 1}), lin(0, term{arg1, 1}), false},
		{"tid diff", lin(0, term{arg0, 1}, term{tid, 8}), lin(0, term{arg0, 1}), true},
		{"const over tid stride", lin(0, term{arg0, 1}, term{tid, 8}), lin(8, term{arg0, 1}, term{tid, 8}), true},
		{"const no stride", lin(0, term{arg0, 1}), lin(8, term{arg0, 1}), false},
		{"stride mismatch", lin(0, term{arg0, 1}, term{tid, 8}), lin(0, term{arg0, 1}, term{tid, 16}), true},
	}
	for _, c := range cases {
		if got := aliasable(c.a, c.b); got != c.want {
			t.Errorf("%s: aliasable(%s, %s) = %v, want %v", c.name, c.a.shape(), c.b.shape(), got, c.want)
		}
		if got := aliasable(c.b, c.a); got != c.want {
			t.Errorf("%s (sym): aliasable(%s, %s) = %v, want %v", c.name, c.b.shape(), c.a.shape(), got, c.want)
		}
	}
}

// abba builds the classic two-lock inversion: one arm takes A then B, the
// other B then A, selected by a tid-dependent branch.
func abba(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewBuilder("abba")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	entry := f.NewBlock("entry")
	ab := f.NewBlock("ab")
	ba := f.NewBlock("ba")
	tail := f.NewBlock("tail")

	entry.Mov(ir.Rg(ir.R(2)), ir.Rg(ir.TID))
	entry.And(ir.Rg(ir.R(2)), ir.Imm(1))
	entry.Cmp(ir.Rg(ir.R(2)), ir.Imm(0))
	entry.Jcc(ir.CondEQ, ab, ba)

	ab.Lock(ir.Imm(0x100)).Lock(ir.Imm(0x108))
	ab.Unlock(ir.Imm(0x108)).Unlock(ir.Imm(0x100))
	ab.Jmp(tail)

	ba.Lock(ir.Imm(0x108)).Lock(ir.Imm(0x100))
	ba.Unlock(ir.Imm(0x100)).Unlock(ir.Imm(0x108))
	ba.Jmp(tail)

	tail.Ret()
	return pb.MustBuild()
}

func TestCycleCandidate(t *testing.T) {
	r := Analyze(abba(t))
	if !r.HasEdge("0x100", "0x108") || !r.HasEdge("0x108", "0x100") {
		t.Fatalf("missing order edges; edges = %+v", r.Edges)
	}
	if len(r.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1 (%+v)", len(r.Cycles), r.Cycles)
	}
	if len(r.Cycles[0].Classes) != 2 {
		t.Fatalf("cycle classes = %v, want 2 distinct named classes", r.Cycles[0].Classes)
	}
	// Both lock words are named singleton classes.
	for _, c := range r.LockClasses {
		if c.Kind != "named" || len(c.Shapes) != 1 {
			t.Errorf("lock class %+v, want singleton named", c)
		}
	}
	// The acquires sit under a divergent branch's influence region.
	if r.DivergentAcquires == 0 {
		t.Errorf("divergent acquires = 0, want > 0 (tid-parity branch)")
	}
}

// TestDivergentSelfLoop is the PR 2 livelock shape: a single-block critical
// section whose loop trip count is tid-derived. The acquire must be flagged
// divergent (the block is inside its own branch's influence region).
func TestDivergentSelfLoop(t *testing.T) {
	pb := ir.NewBuilder("selfloop")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	entry := f.NewBlock("entry")
	cs := f.NewBlock("cs")
	tail := f.NewBlock("tail")

	entry.Mov(ir.Rg(ir.R(2)), ir.Rg(ir.TID))
	entry.And(ir.Rg(ir.R(2)), ir.Imm(3))
	entry.Add(ir.Rg(ir.R(2)), ir.Imm(1))
	entry.Jmp(cs)

	cs.Lock(ir.Imm(0x200))
	cs.Nop(2)
	cs.Unlock(ir.Imm(0x200))
	cs.Sub(ir.Rg(ir.R(2)), ir.Imm(1))
	cs.Cmp(ir.Rg(ir.R(2)), ir.Imm(0))
	cs.Jcc(ir.CondNE, cs, tail)

	tail.Ret()
	p := pb.MustBuild()

	r := Analyze(p)
	var acq *Site
	for i := range r.Sites {
		if !r.Sites[i].Release {
			acq = &r.Sites[i]
		}
	}
	if acq == nil {
		t.Fatal("no acquire site found")
	}
	if !acq.Divergent {
		t.Fatalf("self-looping critical-section acquire not flagged divergent: %+v", *acq)
	}
	if r.DivergentAcquires != 1 {
		t.Errorf("DivergentAcquires = %d, want 1", r.DivergentAcquires)
	}
	// A balanced single-lock loop must not produce cycle or race noise.
	if len(r.Cycles) != 0 {
		t.Errorf("cycles = %+v, want none", r.Cycles)
	}
}

// TestRecursionAndBareRelease covers the acquire-while-held and
// release-without-acquire detectors.
func TestRecursionAndBareRelease(t *testing.T) {
	pb := ir.NewBuilder("recbare")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	b := f.NewBlock("entry")
	b.Lock(ir.Imm(0x300))
	b.Lock(ir.Imm(0x300)) // recursive
	b.Unlock(ir.Imm(0x300))
	b.Unlock(ir.Imm(0x300))
	b.Unlock(ir.Imm(0x308)) // never acquired
	b.Ret()
	p := pb.MustBuild()

	r := Analyze(p)
	if len(r.Recursions) != 1 {
		t.Fatalf("recursions = %v, want exactly the second acquire", r.Recursions)
	}
	if got := r.Sites[r.Recursions[0]]; got.Instr != 1 {
		t.Errorf("recursion at instr %d, want 1", got.Instr)
	}
	if len(r.BareReleases) != 1 {
		t.Fatalf("bare releases = %v, want exactly the 0x308 release", r.BareReleases)
	}
	if got := r.Sites[r.BareReleases[0]]; got.Shape != "0x308" {
		t.Errorf("bare release shape = %q, want 0x308", got.Shape)
	}
	// Recursion on one named lock is not an order cycle.
	if len(r.Cycles) != 0 {
		t.Errorf("cycles = %+v, want none", r.Cycles)
	}
}

// TestMustLocksetProtection: a store consistently under a named lock is not
// a race candidate; the same store pattern without the lock is.
func TestMustLocksetProtection(t *testing.T) {
	build := func(locked bool) *ir.Program {
		pb := ir.NewBuilder("prot")
		f := pb.NewFunc("main")
		pb.SetEntry(f)
		b := f.NewBlock("entry")
		if locked {
			b.Lock(ir.Imm(0x400))
		}
		b.Mov(ir.Mem(ir.R(0), 0, 8), ir.Imm(1)) // store to arg0: shared
		if locked {
			b.Unlock(ir.Imm(0x400))
		}
		b.Ret()
		return pb.MustBuild()
	}
	if r := Analyze(build(true)); r.RaceCandidates != 0 {
		t.Errorf("locked store: race candidates = %d, want 0 (%+v)", r.RaceCandidates, r.AccessClasses)
	}
	if r := Analyze(build(false)); r.RaceCandidates != 1 {
		t.Errorf("unlocked store: race candidates = %d, want 1 (%+v)", r.RaceCandidates, r.AccessClasses)
	}
}

// TestThreadPrivateNotCandidate: tid-strided stores with stride >= size are
// thread-private, but mixing in a named-address access to the same family
// makes the class shareable again.
func TestThreadPrivateNotCandidate(t *testing.T) {
	pb := ir.NewBuilder("priv")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	b := f.NewBlock("entry")
	b.Lea(ir.R(1), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8))
	b.Mov(ir.Mem(ir.R(1), 0, 8), ir.Imm(1)) // arg0+8*tid, private
	b.Ret()
	r := Analyze(pb.MustBuild())
	if r.RaceCandidates != 0 {
		t.Fatalf("tid-strided store: candidates = %d, want 0 (%+v)", r.RaceCandidates, r.AccessClasses)
	}

	pb2 := ir.NewBuilder("priv2")
	f2 := pb2.NewFunc("main")
	pb2.SetEntry(f2)
	b2 := f2.NewBlock("entry")
	b2.Lea(ir.R(1), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8))
	b2.Mov(ir.Mem(ir.R(1), 0, 8), ir.Imm(1))      // arg0+8*tid
	b2.Mov(ir.Rg(ir.R(3)), ir.Mem(ir.R(0), 0, 8)) // load arg0: same class via tid diff
	b2.Ret()
	r2 := Analyze(pb2.MustBuild())
	if r2.RaceCandidates != 1 {
		t.Fatalf("mixed tid/named class: candidates = %d, want 1 (%+v)", r2.RaceCandidates, r2.AccessClasses)
	}
}

// TestInterproceduralMustLockset: a lock held across a call protects the
// callee's stores (the must set survives contributeEntry / the callee walk).
func TestInterproceduralMustLockset(t *testing.T) {
	pb := ir.NewBuilder("interproc")
	mainF := pb.NewFunc("main")
	leaf := pb.NewFunc("leaf")
	pb.SetEntry(mainF)

	m0 := mainF.NewBlock("entry")
	m1 := mainF.NewBlock("cont")
	m0.Lock(ir.Imm(0x500))
	m0.Call(leaf, m1)
	m1.Unlock(ir.Imm(0x500))
	m1.Ret()

	l0 := leaf.NewBlock("entry")
	l0.Mov(ir.Mem(ir.R(0), 0, 8), ir.Imm(7)) // store in callee, lock held by caller
	l0.Ret()

	r := Analyze(pb.MustBuild())
	ai, ok := r.AccessAt(uint32(leaf.ID()), 0, 0)
	if !ok {
		t.Fatal("callee store not profiled")
	}
	if got := r.Accesses[ai].MustLocks; len(got) != 1 || got[0] != "0x500" {
		t.Fatalf("callee must-lockset = %v, want [0x500]", got)
	}
	if r.RaceCandidates != 0 {
		t.Errorf("race candidates = %d, want 0", r.RaceCandidates)
	}
}

// TestDeterminism: rendered and JSON output must be byte-identical across
// repeated analyses of every built-in workload (satellite: byte-deterministic
// finding order).
func TestDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		inst, err := w.Instantiate(workloads.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var prev []byte
		for round := 0; round < 2; round++ {
			r := Analyze(inst.Prog)
			var buf bytes.Buffer
			r.Render(&buf, true, true, true)
			js, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("%s: marshal: %v", w.Name, err)
			}
			cur := append(buf.Bytes(), js...)
			if round > 0 && !bytes.Equal(prev, cur) {
				t.Fatalf("%s: non-deterministic output across runs", w.Name)
			}
			prev = cur
		}
	}
}

// TestPhasesReachSameBlocks: phase 2 reads each block's converged phase-1
// state, so it must never reach a block phase 1 did not. Both phases share
// the successor dispatch and the awaitReturn call policy, so their reached
// blocks and phantoms coincide on every workload at every opt level.
func TestPhasesReachSameBlocks(t *testing.T) {
	for _, w := range workloads.All() {
		inst, err := w.Instantiate(workloads.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, lvl := range opt.Levels {
			p := opt.Apply(inst.Prog, lvl)
			sym := solveSymbolic(p)
			la := solveLocks(p, sym)
			for fi := range p.Funcs {
				sfx, lfx := &sym.Fns[fi], &la.Fns[fi]
				if sfx.Phantom != lfx.Phantom {
					t.Errorf("%s/%s: func %d phantom %v in phase 1, %v in phase 2", w.Name, lvl, fi, sfx.Phantom, lfx.Phantom)
				}
				for bi := range sfx.InSeen {
					if sfx.InSeen[bi] != lfx.InSeen[bi] {
						t.Errorf("%s/%s: func %d block %d reached %v in phase 1, %v in phase 2", w.Name, lvl, fi, bi, sfx.InSeen[bi], lfx.InSeen[bi])
					}
				}
			}
		}
	}
}
