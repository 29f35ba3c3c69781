package analysis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
	"threadfuser/internal/staticlock"
	"threadfuser/internal/staticmem"
	"threadfuser/internal/staticsimt"
	"threadfuser/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

// staticOracles names each static oracle's JSON result for the golden pin.
var staticOracles = []struct {
	name    string
	analyze func(*ir.Program) any
}{
	{"simt", func(p *ir.Program) any { return staticsimt.Analyze(p, staticsimt.Options{}) }},
	{"locks", func(p *ir.Program) any { return staticlock.Analyze(p) }},
	{"mem", func(p *ir.Program) any { return staticmem.Analyze(p) }},
}

// pinnedPrograms are hand-built inputs for paths no catalog workload takes.
func pinnedPrograms() []*ir.Program {
	// A phantom (a function the entry never reaches) calls a lock-taking
	// callee that nothing else calls. The call must not enter the callee,
	// which is a phantom of its own, solved under the phantom seed.
	pb := ir.NewBuilder("phantomcaller")
	mainF, phantom, taker := pb.NewFunc("main"), pb.NewFunc("phantom"), pb.NewFunc("taker")
	mainF.NewBlock("entry").Lock(ir.Imm(0x100)).Unlock(ir.Imm(0x100)).Ret()
	p0, p1 := phantom.NewBlock("entry"), phantom.NewBlock("cont")
	p0.Lock(ir.Imm(0x200)).Call(taker, p1)
	p1.Unlock(ir.Imm(0x200)).Ret()
	taker.NewBlock("entry").Lock(ir.Imm(0x300)).Unlock(ir.Imm(0x300)).Ret()
	phantomCaller := pb.MustBuild()

	// Both arms of a divergent branch take 0x100 at different sites, then
	// the join nests 0x108 inside it. The may-lockset join keeps the lower
	// site as the witness of the 0x100 -> 0x108 edge.
	pb = ir.NewBuilder("nestedwitness")
	f := pb.NewFunc("main")
	entry, left, right, join := f.NewBlock("entry"), f.NewBlock("left"), f.NewBlock("right"), f.NewBlock("join")
	entry.Mov(ir.Rg(ir.R(2)), ir.Rg(ir.TID)).And(ir.Rg(ir.R(2)), ir.Imm(1)).Cmp(ir.Rg(ir.R(2)), ir.Imm(0))
	entry.Jcc(ir.CondEQ, left, right)
	left.Lock(ir.Imm(0x100)).Jmp(join)
	right.Nop(1).Lock(ir.Imm(0x100)).Jmp(join)
	join.Lock(ir.Imm(0x108)).Unlock(ir.Imm(0x108)).Unlock(ir.Imm(0x100)).Ret()
	return []*ir.Program{phantomCaller, pb.MustBuild()}
}

// TestStaticOracleGolden pins the static oracles' precision across changes:
// one SHA-256 of the JSON result per (workload, optimization level, oracle),
// at the tfstatic defaults (seed 7, default threads), and per
// (pinnedPrograms entry, optimization level, oracle). Soundness tests only
// bound the facts from one side, so a change that loses precision would pass
// them; this one fails on any drift. Run with -update after an intentional
// behaviour change:
//
//	go test ./internal/analysis -run TestStaticOracleGolden -update
func TestStaticOracleGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_static.json")
	got := make(map[string]string)
	pin := func(name string, base *ir.Program) {
		for _, lvl := range opt.Levels {
			prog := base
			if lvl != opt.O1 {
				prog = opt.Apply(prog, lvl)
			}
			for _, o := range staticOracles {
				data, err := json.Marshal(o.analyze(prog))
				if err != nil {
					t.Fatalf("%s/%s/%s: marshal: %v", name, lvl, o.name, err)
				}
				sum := sha256.Sum256(data)
				got[name+"/"+lvl.String()+"/"+o.name] = hex.EncodeToString(sum[:])
			}
		}
	}
	for _, w := range workloads.All() {
		inst, err := w.Instantiate(workloads.Config{Seed: 7})
		if err != nil {
			t.Fatalf("%s: instantiate: %v", w.Name, err)
		}
		pin(w.Name, inst.Prog)
	}
	for _, prog := range pinnedPrograms() {
		pin("pinned."+prog.Name, prog)
	}

	checkGolden(t, path, got, "static oracle result")
}

// TestLintGolden pins the lint engine's findings across changes: one SHA-256
// of the JSON report per workload, linted with every pass and the program
// attached, at the tflint defaults (seed 7, default threads, warp 32). Run
// with -update after an intentional behaviour change:
//
//	go test ./internal/analysis -run TestLintGolden -update
func TestLintGolden(t *testing.T) {
	got := make(map[string]string)
	for _, w := range workloads.All() {
		inst, tr := instanceFor(t, w.Name)
		rep, err := analysis.Run(tr, analysis.Options{WarpSize: 32, Prog: inst.Prog})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal: %v", w.Name, err)
		}
		sum := sha256.Sum256(data)
		got[w.Name] = hex.EncodeToString(sum[:])
	}
	checkGolden(t, filepath.Join("testdata", "golden_lint.json"), got, "lint report")
}

// checkGolden compares got against the snapshot at path, or rewrites the
// snapshot under -update. what names the pinned value in failure messages.
func checkGolden(t *testing.T, path string, got map[string]string, what string) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot (run with -update to create it): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in snapshot but no longer analyzed; run -update if removed intentionally", key)
			continue
		}
		if g != w {
			t.Errorf("%s: %s drifted from the golden snapshot; run with -update if this change is intentional", key, what)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: missing from snapshot; run with -update", key)
		}
	}
}
