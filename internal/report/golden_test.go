package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

// TestGoldenExperiments pins the whole evaluation: one SHA-256 of each
// experiment's data struct as JSON, at the default scale (seed 1, reduced
// thread counts). The shape tests above bound the figures from one side
// only; this one fails on any drift. Run with -update after an intentional
// behaviour change:
//
//	go test ./internal/report -run TestGoldenExperiments -update
func TestGoldenExperiments(t *testing.T) {
	runs := []struct {
		id  string
		run func() (any, error)
	}{
		{"fig1", func() (any, error) { return Fig1(testScale) }},
		{"table1", func() (any, error) { return Table1(), nil }},
		{"fig5a", func() (any, error) { return Fig5a(testScale) }},
		{"fig5b", func() (any, error) { return Fig5b(testScale) }},
		{"fig6", func() (any, error) { return Fig6(testScale) }},
		{"fig7", func() (any, error) { return Fig7(testScale) }},
		{"fig8", func() (any, error) { return Fig8(testScale) }},
		{"fig9", func() (any, error) { return Fig9(testScale) }},
		{"fig10", func() (any, error) { return Fig10(testScale) }},
		{"table2", func() (any, error) { return Table2(testScale) }},
		{"ext1", func() (any, error) { return Ext1(testScale) }},
		{"ext2", func() (any, error) { return Ext2(testScale) }},
	}
	got := make(map[string]string)
	for _, r := range runs {
		d, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: marshal: %v", r.id, err)
		}
		sum := sha256.Sum256(data)
		got[r.id] = hex.EncodeToString(sum[:])
	}

	path := filepath.Join("testdata", "golden_experiments.json")
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
	for id, w := range want {
		if g, ok := got[id]; !ok {
			t.Errorf("%s: in snapshot but no longer run; run -update if removed intentionally", id)
		} else if g != w {
			t.Errorf("%s: experiment data drifted from the golden snapshot; run with -update if this change is intentional", id)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: missing from snapshot; run with -update", id)
		}
	}
}
