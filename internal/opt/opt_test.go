package opt

import (
	"testing"

	"threadfuser/internal/core"
	"threadfuser/internal/ir"
	"threadfuser/internal/vm"
	"threadfuser/internal/workloads"
)

// TestTransformsPreserveSemantics runs every Table-I workload at every
// optimization level and checks the global+heap memory image is identical
// to the canonical build's — the transforms may change instruction streams
// and stack traffic but never results.
func TestTransformsPreserveSemantics(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.Instantiate(workloads.Config{Seed: 3, Threads: 16})
			if err != nil {
				t.Fatal(err)
			}
			run := func(prog *ir.Program) uint64 {
				p, args, err := inst.WithProgram(prog).NewProcess()
				if err != nil {
					t.Fatal(err)
				}
				for tid := 0; tid < 16; tid++ {
					th := p.NewThread(tid)
					if args != nil {
						args(tid, th)
					}
					if _, err := th.Run(vm.RunConfig{}); err != nil {
						t.Fatalf("%s: %v", prog.Name, err)
					}
				}
				return p.Mem.HashBelow(vm.StackBase)
			}
			want := run(inst.Prog)
			for _, lvl := range Levels {
				if got := run(Apply(inst.Prog, lvl)); got != want {
					t.Errorf("%s build changed global/heap results", lvl)
				}
			}
			if got := run(HardwareBuild(inst.Prog)); got != want {
				t.Errorf("hardware build changed global/heap results")
			}
		})
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		ok   bool
	}{
		{"O0", O0, true},
		{"O1", O1, true},
		{"O2", O2, true},
		{"O3", O3, true},
		{"o1", 0, false},
		{"O4", 0, false},
		{"", 0, false},
		{" O1", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseLevel(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestIfConvertFiresOnWorkloads guards against the transform silently
// matching nothing (which would flatten the figure-5 scatter to a line).
func TestIfConvertFiresOnWorkloads(t *testing.T) {
	total := 0
	for _, name := range []string{"rodinia.sc", "parsec.bodytrack", "dsb.text", "parsec.blackscholes"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Instantiate(workloads.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := ir.Clone(inst.Prog)
		n := IfConvert(p, ifBudgetO3)
		if n == 0 {
			t.Errorf("%s: O3 if-conversion found no diamonds", name)
		}
		total += n
	}
	if total < 4 {
		t.Errorf("if-conversion fired only %d times across four branchy workloads", total)
	}
}

// TestOptLevelEfficiencyOrdering pins the figure-5a direction: higher
// optimization levels flatten divergence, so predicted efficiency is
// non-decreasing from O1 to O3 and O0 matches O1 (same control flow).
func TestOptLevelEfficiencyOrdering(t *testing.T) {
	for _, name := range []string{"rodinia.sc", "parsec.bodytrack", "dsb.text"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Instantiate(workloads.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eff := map[Level]float64{}
		for _, lvl := range Levels {
			tr, err := inst.WithProgram(Apply(inst.Prog, lvl)).Trace()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Analyze(tr, core.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			eff[lvl] = rep.Efficiency
		}
		// O0 keeps the control-flow graph but dilutes blocks with spill
		// code, so efficiency shifts only slightly.
		if diff := eff[O0] - eff[O1]; diff > 0.07 || diff < -0.07 {
			t.Errorf("%s: O0 efficiency %.3f far from O1 %.3f (same control flow expected)", name, eff[O0], eff[O1])
		}
		if eff[O2] < eff[O1]-1e-9 {
			t.Errorf("%s: O2 efficiency %.3f below O1 %.3f", name, eff[O2], eff[O1])
		}
		if eff[O3] < eff[O2]-1e-9 {
			t.Errorf("%s: O3 efficiency %.3f below O2 %.3f", name, eff[O3], eff[O2])
		}
		if eff[O3] <= eff[O1]+1e-9 {
			t.Errorf("%s: O3 efficiency %.3f does not exceed O1 %.3f; if-conversion had no effect", name, eff[O3], eff[O1])
		}
	}
}

// TestO0InflatesMemoryTraffic pins the figure-5b direction: the O0 build
// issues strictly more memory transactions (stack spills plus redundant
// reloads) than the canonical build.
func TestO0InflatesMemoryTraffic(t *testing.T) {
	w, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(prog *ir.Program) *core.Report {
		tr, err := inst.WithProgram(prog).Trace()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Analyze(tr, core.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	o0 := analyze(Apply(inst.Prog, O0))
	o1 := analyze(inst.Prog)
	if o0.HeapTx <= o1.HeapTx {
		t.Errorf("O0 heap transactions %d not above O1's %d (redundant reloads missing)", o0.HeapTx, o1.HeapTx)
	}
	if o0.StackTx <= o1.StackTx {
		t.Errorf("O0 stack transactions %d not above O1's %d (spills missing)", o0.StackTx, o1.StackTx)
	}
	if o0.TotalInstrs <= o1.TotalInstrs {
		t.Errorf("O0 executed %d instructions, want more than O1's %d", o0.TotalInstrs, o1.TotalInstrs)
	}
}
