package analysis_test

import (
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// runProg traces a small program with nthreads threads; r0 gets base in
// every thread.
func runProg(t *testing.T, prog *ir.Program, nthreads int, global int, setup func(p *vm.Process, base uint64)) *trace.Trace {
	t.Helper()
	p := vm.NewProcess(prog)
	var base uint64
	if global > 0 {
		base = p.AllocGlobal(uint64(global))
	}
	if setup != nil {
		setup(p, base)
	}
	tr, err := vm.TraceAll(p, nthreads, vm.RunConfig{}, func(tid int, th *vm.Thread) {
		th.SetReg(ir.R(0), int64(base))
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDynamicLockOrderTable drives DynamicLockOrder (and through it the
// deadlock pass) over the tricky shapes: recursive acquires, releases of
// never-acquired locks, and cycles longer than two.
func TestDynamicLockOrderTable(t *testing.T) {
	cases := []struct {
		name       string
		build      func(t *testing.T) *trace.Trace
		edges      int   // site-attributed edge count
		cycles     int   // deadlock certificates
		cycleLocks []int // Addrs length per cycle
	}{
		{
			// lock A; lock A (recursive); lock B; unwind. The re-acquire
			// deepens the hold without an A->A edge; the single A->B edge is
			// attributed to the depth-1 acquire site.
			name: "recursive acquire adds no edge",
			build: func(t *testing.T) *trace.Trace {
				pb := ir.NewBuilder("rec")
				f := pb.NewFunc("main")
				pb.SetEntry(f)
				b := f.NewBlock("entry")
				b.Lock(ir.Imm(0x100)).Lock(ir.Imm(0x100)).Lock(ir.Imm(0x108)).
					Unlock(ir.Imm(0x108)).Unlock(ir.Imm(0x100)).Unlock(ir.Imm(0x100)).
					Ret()
				return runProg(t, pb.MustBuild(), 2, 0, nil)
			},
			edges: 1,
		},
		{
			// The stray release must not corrupt the held set or invent
			// edges: only A->B remains.
			name: "release without acquire is inert",
			build: func(t *testing.T) *trace.Trace {
				pb := ir.NewBuilder("bare")
				f := pb.NewFunc("main")
				pb.SetEntry(f)
				b := f.NewBlock("entry")
				b.Unlock(ir.Imm(0x200)).
					Lock(ir.Imm(0x100)).Lock(ir.Imm(0x108)).
					Unlock(ir.Imm(0x108)).Unlock(ir.Imm(0x100)).
					Ret()
				return runProg(t, pb.MustBuild(), 2, 0, nil)
			},
			edges: 1,
		},
		{
			// Thread t holds lock[t] while acquiring lock[(t+1)%4]: one
			// 4-lock cycle, no pairwise inversion.
			name: "cycle of length four",
			build: func(t *testing.T) *trace.Trace {
				pb := ir.NewBuilder("ring4")
				f := pb.NewFunc("main")
				pb.SetEntry(f)
				b := f.NewBlock("entry")
				b.Mov(ir.Rg(ir.R(2)), ir.Rg(ir.TID)).
					Add(ir.Rg(ir.R(2)), ir.Imm(1)).
					Rem(ir.Rg(ir.R(2)), ir.Imm(4)).
					Lea(ir.R(1), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8)).
					Lea(ir.R(3), ir.MemIdx(ir.R(0), ir.R(2), 8, 0, 8)).
					Lock(ir.Rg(ir.R(1))).Lock(ir.Rg(ir.R(3))).
					Unlock(ir.Rg(ir.R(3))).Unlock(ir.Rg(ir.R(1))).
					Ret()
				return runProg(t, pb.MustBuild(), 4, 8*4, nil)
			},
			edges:      4,
			cycles:     1,
			cycleLocks: []int{4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.build(t)
			lo := analysis.DynamicLockOrder(tr)
			if len(lo.Edges) != tc.edges {
				t.Fatalf("edges = %d (%+v), want %d", len(lo.Edges), lo.Edges, tc.edges)
			}
			if len(lo.Cycles) != tc.cycles {
				t.Fatalf("cycles = %d (%+v), want %d", len(lo.Cycles), lo.Cycles, tc.cycles)
			}
			for i, want := range tc.cycleLocks {
				if got := len(lo.Cycles[i].Addrs); got != want {
					t.Errorf("cycle %d spans %d lock(s), want %d", i, got, want)
				}
			}
			// The deadlock pass must agree with the raw graph.
			rep, err := analysis.Run(tr, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n := countPass(rep, "deadlock", analysis.SevWarning); n != tc.cycles {
				rep.Render(testWriter{t})
				t.Errorf("deadlock warnings = %d, want %d", n, tc.cycles)
			}
		})
	}
}

// TestLockEdgeSiteAttribution pins the FromSite of a recursive hold to the
// depth-1 acquire, not the re-acquire.
func TestLockEdgeSiteAttribution(t *testing.T) {
	pb := ir.NewBuilder("attr")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	b := f.NewBlock("entry")
	b.Lock(ir.Imm(0x100)). // i0: depth-1 acquire — the witness
				Lock(ir.Imm(0x100)). // i1: recursive
				Lock(ir.Imm(0x108)). // i2: draws the edge
				Unlock(ir.Imm(0x108)).Unlock(ir.Imm(0x100)).Unlock(ir.Imm(0x100)).
				Ret()
	lo := analysis.DynamicLockOrder(runProg(t, pb.MustBuild(), 1, 0, nil))
	if len(lo.Edges) != 1 {
		t.Fatalf("edges = %+v, want 1", lo.Edges)
	}
	e := lo.Edges[0]
	if e.FromSite.Instr != 0 || e.ToSite.Instr != 2 {
		t.Fatalf("edge sites = i%d -> i%d, want i0 -> i2", e.FromSite.Instr, e.ToSite.Instr)
	}
}

// TestLocksetShadowTransitions exercises the Eraser shadow state machine
// through the lockset pass: Exclusive and read-Shared stay silent,
// SharedMod reports only on an empty candidate lockset, and each racy word
// is reported exactly once.
func TestLocksetShadowTransitions(t *testing.T) {
	// Layout at r0: +0 read-shared word, +8 lock word, +16 locked counter,
	// +24 racy word (written by every thread, no lock).
	build := func(locked bool) *ir.Program {
		pb := ir.NewBuilder("shadow")
		f := pb.NewFunc("main")
		pb.SetEntry(f)
		b := f.NewBlock("entry")
		b.Mov(ir.Rg(ir.R(1)), ir.Mem(ir.R(0), 0, 8)) // Exclusive -> Shared
		if locked {
			b.Lock(ir.Mem(ir.R(0), 8, 8))
			b.Add(ir.Mem(ir.R(0), 16, 8), ir.Imm(1)) // SharedMod, lockset {+8}
			b.Unlock(ir.Mem(ir.R(0), 8, 8))
		} else {
			b.Add(ir.Mem(ir.R(0), 16, 8), ir.Imm(1)) // SharedMod, empty lockset
		}
		b.Mov(ir.Mem(ir.R(0), 24, 8), ir.Rg(ir.TID)). // always racy
								Mov(ir.Mem(ir.R(0), 24, 8), ir.Rg(ir.TID)). // second racy access: same finding
								Ret()
		return pb.MustBuild()
	}

	rep, err := analysis.Run(runProg(t, build(true), 4, 32, nil), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countPass(rep, "lockset", analysis.SevWarning); n != 1 {
		rep.Render(testWriter{t})
		t.Fatalf("locked variant: %d lockset warning(s), want 1 (only the +24 word)", n)
	}

	rep, err = analysis.Run(runProg(t, build(false), 4, 32, nil), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countPass(rep, "lockset", analysis.SevWarning); n != 2 {
		rep.Render(testWriter{t})
		t.Fatalf("unlocked variant: %d lockset warning(s), want 2 (+16 and +24, deduped per word)", n)
	}
}

// TestDynamicRaceAccessesSites checks the site projection the static
// cross-check consumes: racy words list every accessing site with its
// store/unlocked verdicts.
func TestDynamicRaceAccessesSites(t *testing.T) {
	pb := ir.NewBuilder("sites")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	b := f.NewBlock("entry")
	b.Mov(ir.Mem(ir.R(0), 0, 8), ir.Rg(ir.TID)). // i0 store, unlocked
							Mov(ir.Rg(ir.R(1)), ir.Mem(ir.R(0), 0, 8)). // i1 load, unlocked
							Ret()
	racy := analysis.DynamicRaceAccesses(runProg(t, pb.MustBuild(), 4, 8, nil))
	if len(racy) != 1 {
		t.Fatalf("racy addrs = %+v, want 1", racy)
	}
	accs := racy[0].Accesses
	if len(accs) != 2 {
		t.Fatalf("accesses = %+v, want 2 sites", accs)
	}
	if !accs[0].Store || accs[0].Instr != 0 || !accs[0].Unlocked {
		t.Errorf("site 0 = %+v, want unlocked store at i0", accs[0])
	}
	if accs[1].Store || accs[1].Instr != 1 || !accs[1].Unlocked {
		t.Errorf("site 1 = %+v, want unlocked load at i1", accs[1])
	}
}

// TestLockLintShapes pins the locks pass's runtime findings on the shapes no
// catalog workload takes: a stray release, a recursive acquire, a leak
// left by unwinding a recursive hold only once (attributed to the depth-1
// acquire), and a two-thread inversion reported once per lock pair.
func TestLockLintShapes(t *testing.T) {
	pb := ir.NewBuilder("shapes")
	f := pb.NewFunc("main")
	pb.SetEntry(f)
	a, b, c := ir.Mem(ir.R(0), 0, 8), ir.Mem(ir.R(0), 8, 8), ir.Mem(ir.R(0), 16, 8)
	f.NewBlock("entry").
		Unlock(c). // i0: release without acquire
		Lock(a).   // i1: depth-1 acquire, leaked
		Lock(a).   // i2: recursive
		Lock(b).   // i3
		Unlock(b).Unlock(a).
		Ret()
	rep, err := analysis.Run(runProg(t, pb.MustBuild(), 2, 24, nil), analysis.Options{Passes: []string{"locks"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"release at instruction 0 without a matching acquire: 2 occurrence(s)",
		"recursive acquisition at instruction 2 of a lock already held: 2 occurrence(s)",
		"lock acquired at instruction 1 is never released: 2 leaked acquisition(s)",
	} {
		if !hasMessage(rep, "locks", want) {
			rep.Render(testWriter{t})
			t.Errorf("missing locks finding %q", want)
		}
	}
	if n := countPass(rep, "locks", analysis.SevWarning); n != 3 {
		rep.Render(testWriter{t})
		t.Errorf("locks warnings and errors = %d, want 3", n)
	}

	// Thread t takes lock[t] then lock[1-t], twice from two different
	// sites: four site-attributed edges, one inversion.
	pb = ir.NewBuilder("inversion")
	f = pb.NewFunc("main")
	pb.SetEntry(f)
	blk := f.NewBlock("entry").
		Mov(ir.Rg(ir.R(2)), ir.Imm(1)).
		Sub(ir.Rg(ir.R(2)), ir.Rg(ir.TID)).
		Lea(ir.R(1), ir.MemIdx(ir.R(0), ir.TID, 8, 0, 8)).
		Lea(ir.R(3), ir.MemIdx(ir.R(0), ir.R(2), 8, 0, 8))
	for i := 0; i < 2; i++ {
		blk.Lock(ir.Rg(ir.R(1))).Lock(ir.Rg(ir.R(3))).Unlock(ir.Rg(ir.R(3))).Unlock(ir.Rg(ir.R(1)))
	}
	blk.Ret()
	tr := runProg(t, pb.MustBuild(), 2, 16, nil)
	if lo := analysis.DynamicLockOrder(tr); len(lo.Edges) != 4 {
		t.Fatalf("edges = %+v, want 4", lo.Edges)
	}
	rep, err = analysis.Run(tr, analysis.Options{Passes: []string{"locks"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := countPass(rep, "locks", analysis.SevWarning); n != 1 || !hasMessage(rep, "locks", "lock-order inversion") {
		rep.Render(testWriter{t})
		t.Errorf("want exactly one inversion warning, got %d locks warning(s)", n)
	}
}
