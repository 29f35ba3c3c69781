package trace_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

// TestArenaWorkloadEquivalence is the arena-vs-legacy property test over
// real inputs: for every built-in workload and all three container versions,
// the arena-backed decode (Decode/DecodeBytes, plus the parallel fill path)
// and the legacy streaming decode produce deeply-equal traces, and the
// analyzer produces bit-identical reports from either — so switching the
// decode path can never change an analysis result.
func TestArenaWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("traces and analyzes every workload")
	}
	encoders := []struct {
		name string
		enc  func(io.Writer, *trace.Trace) error
	}{
		{"v1", trace.Encode},
		{"v2", trace.EncodeCompact},
		{"v3", trace.EncodeIndexed},
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.Instantiate(workloads.Config{Threads: 8, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range encoders {
				var buf bytes.Buffer
				if err := e.enc(&buf, tr); err != nil {
					t.Fatalf("%s encode: %v", e.name, err)
				}
				legacy, err := trace.DecodeStream(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s legacy decode: %v", e.name, err)
				}
				arena, err := trace.Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s arena decode: %v", e.name, err)
				}
				if !reflect.DeepEqual(legacy, arena) {
					t.Fatalf("%s: arena decode differs from legacy decode", e.name)
				}
				par, err := trace.DecodeParallel(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 4)
				if err != nil {
					t.Fatalf("%s parallel decode: %v", e.name, err)
				}
				if !reflect.DeepEqual(legacy, par) {
					t.Fatalf("%s: parallel decode differs from legacy decode", e.name)
				}
				legacyRep, err := core.Analyze(legacy, core.Defaults())
				if err != nil {
					t.Fatalf("%s analyze legacy: %v", e.name, err)
				}
				arenaRep, err := core.Analyze(arena, core.Defaults())
				if err != nil {
					t.Fatalf("%s analyze arena: %v", e.name, err)
				}
				lj, err := json.Marshal(legacyRep)
				if err != nil {
					t.Fatal(err)
				}
				aj, err := json.Marshal(arenaRep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(lj, aj) {
					t.Fatalf("%s: analyzer report differs between legacy and arena decode", e.name)
				}
			}
		})
	}
}

// TestLyingIndexCounts: a v3 footer that understates one section's access
// count still validates as an index, but only the stream is trusted: Decode,
// ReadFileParallel and every Reader.Thread return the encoded trace, and the
// streaming analysis reports exactly what the batch analysis does.
func TestLyingIndexCounts(t *testing.T) {
	w, err := workloads.ByName("rodinia.bfs")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Threads: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeIndexed(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := trace.LyingAccessIndex(buf.Bytes())
	if bytes.Equal(data, buf.Bytes()) {
		t.Fatal("the trace has no access count to understate")
	}
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("the lying footer no longer validates as an index: %v", err)
	}

	got, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("Decode differs from the encoded trace")
	}
	path := filepath.Join(t.TempDir(), "lying.tft")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = trace.ReadFileParallel(path, 4)
	if err != nil {
		t.Fatalf("ReadFileParallel: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("ReadFileParallel differs from the encoded trace")
	}
	for i := 0; i < r.NumThreads(); i++ {
		th, err := r.Thread(i)
		if err != nil {
			t.Fatalf("Thread(%d): %v", i, err)
		}
		if !reflect.DeepEqual(tr.Threads[i], th) {
			t.Errorf("Thread(%d) differs from the encoded thread", i)
		}
	}

	want, err := core.Analyze(tr, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.AnalyzeStream(r, core.Defaults())
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	if !reflect.DeepEqual(want, rep) {
		t.Error("streaming report differs from the batch report")
	}
}
