package analysis_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

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

// TestStaticOracleGolden pins the static oracles' precision across changes:
// one SHA-256 of the JSON result per (workload, optimization level, oracle),
// at the tfstatic defaults (seed 7, default threads). Soundness tests only
// bound the facts from one side, so a change that loses precision would pass
// them; this one fails on any drift. Run with -update after an intentional
// behaviour change:
//
//	go test ./internal/analysis -run TestStaticOracleGolden -update
func TestStaticOracleGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden_static.json")
	got := make(map[string]string)
	for _, w := range workloads.All() {
		inst, err := w.Instantiate(workloads.Config{Seed: 7})
		if err != nil {
			t.Fatalf("%s: instantiate: %v", w.Name, err)
		}
		for _, lvl := range opt.Levels {
			prog := inst.Prog
			if lvl != opt.O1 {
				prog = opt.Apply(prog, lvl)
			}
			for _, o := range staticOracles {
				data, err := json.Marshal(o.analyze(prog))
				if err != nil {
					t.Fatalf("%s/%s/%s: marshal: %v", w.Name, lvl, o.name, err)
				}
				sum := sha256.Sum256(data)
				got[w.Name+"/"+lvl.String()+"/"+o.name] = hex.EncodeToString(sum[:])
			}
		}
	}

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
			t.Errorf("%s: static oracle result drifted from the golden snapshot; run with -update if this change is intentional", key)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: missing from snapshot; run with -update", key)
		}
	}
}
