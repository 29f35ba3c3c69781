package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot files")

// TestEncodeGolden pins the on-disk format: the SHA-256 of every workload's
// encoding (8 threads, seed 1) in each container version. A symmetric
// encoder/decoder slip still round-trips, so only a byte-level pin catches a
// change that would make files users already have unreadable. Run with
// -update only after an intentional format change:
//
//	go test ./internal/trace -run TestEncodeGolden -update
func TestEncodeGolden(t *testing.T) {
	path := filepath.Join("testdata", "encode_golden.json")
	got := make(map[string]map[string]string)
	for _, w := range workloads.All() {
		tr := traceWorkload(t, w, 8)
		sums := make(map[string]string)
		for _, v := range versions {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr, v); err != nil {
				t.Fatalf("%s v%d: encode: %v", w.Name, v, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			sums[fmt.Sprintf("v%d", v)] = hex.EncodeToString(sum[:])
		}
		got[w.Name] = sums
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d workloads)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot (run with -update to create it): %v", err)
	}
	want := make(map[string]map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in snapshot but not in workloads.All(); run -update if removed intentionally", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: encoding drifted from the golden snapshot\n got: %v\nwant: %v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: new workload missing from snapshot; run with -update", name)
		}
	}
}
