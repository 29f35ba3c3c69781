package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

// versions are the .tft container versions Encode writes.
var versions = []int{1, 2, 3}

// traceWorkload traces workload w at the given thread count and seed 1.
func traceWorkload(tb testing.TB, w *workloads.Workload, threads int) *trace.Trace {
	tb.Helper()
	inst, err := w.Instantiate(workloads.Config{Threads: threads, Seed: 1})
	if err != nil {
		tb.Fatalf("%s: instantiate: %v", w.Name, err)
	}
	tr, err := inst.Trace()
	if err != nil {
		tb.Fatalf("%s: trace: %v", w.Name, err)
	}
	return tr
}

// The codec table is trace source × version × decoder. checkCodec is one
// (source, version) cell, run over every decoder; the tests below are its
// rows, one per trace source:
//
//	TestArenaDecodeMatchesLegacy             edge traces and 12 random traces, v1–v3
//	TestCodecRoundTrip                       100 testing/quick random traces, v1
//	TestCompactCodecRoundTrip                the same, v2
//	TestIndexedCodecRoundTrip                the same, v3
//	TestDecodeParallelFallsBackWithoutIndex  one random trace, v1 and v2
//	TestArenaWorkloadEquivalence/<workload>  every workload at 8 threads, v1–v3
//
// TestGoldenCodecEquivalence adds the analyzer JSON to the workload rows,
// and TestDecodeParallelMatchesDecode and TestCodecFileRoundTrip cover what
// the cell fixes: the fill's worker counts and the file writers.

// TestArenaDecodeMatchesLegacy: the hand-built arena edge traces and 12
// random traces decode identically under every decoder in every version.
func TestArenaDecodeMatchesLegacy(t *testing.T) {
	traces := trace.EdgeTraces()
	for seed := int64(0); seed < 12; seed++ {
		traces[string(rune('a'+seed))+"-random"] = trace.RandomTrace(seed)
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			for _, v := range versions {
				checkCodec(t, tr, v)
			}
		})
	}
}

// TestCodecRoundTrip: v1 round-trips 100 random traces under every decoder.
func TestCodecRoundTrip(t *testing.T) { checkRandom(t, 1) }

// TestCompactCodecRoundTrip: the same for the delta-encoded v2.
func TestCompactCodecRoundTrip(t *testing.T) { checkRandom(t, 2) }

// TestIndexedCodecRoundTrip: the same for the indexed v3, whose stream is
// also readable front to back without the index.
func TestIndexedCodecRoundTrip(t *testing.T) { checkRandom(t, 3) }

// checkRandom runs the codec cell over 100 testing/quick random traces in
// one version.
func checkRandom(t *testing.T, version int) {
	f := func(seed int64) bool {
		checkCodec(t, trace.RandomTrace(seed), version)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeParallelFallsBackWithoutIndex: v1 and v2 inputs have no index,
// so NewReader reports ErrNoIndex, and every parallel decoder degrades to
// the sequential path, never to an error (both asserted by the cell).
func TestDecodeParallelFallsBackWithoutIndex(t *testing.T) {
	tr := trace.RandomTrace(7)
	for _, v := range []int{1, 2} {
		checkCodec(t, tr, v)
	}
}

// TestArenaWorkloadEquivalence: every workload, traced at 8 threads and
// encoded in every version, decodes identically under every decoder.
func TestArenaWorkloadEquivalence(t *testing.T) {
	forEachWorkload(t, func(t *testing.T, tr *trace.Trace) {
		for _, v := range versions {
			checkCodec(t, tr, v)
		}
	})
}

// TestGoldenCodecEquivalence: a workload's analyzer report is bit-identical
// whichever version its trace travelled through, so nothing an analysis
// can observe depends on the container.
func TestGoldenCodecEquivalence(t *testing.T) {
	forEachWorkload(t, func(t *testing.T, tr *trace.Trace) {
		var reports [][]byte
		for _, v := range versions {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr, v); err != nil {
				t.Fatalf("v%d encode: %v", v, err)
			}
			got, err := trace.Decode(&buf)
			if err != nil {
				t.Fatalf("v%d decode: %v", v, err)
			}
			rep, err := core.Analyze(got, core.Defaults())
			if err != nil {
				t.Fatalf("v%d analyze: %v", v, err)
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, js)
		}
		for i := 1; i < len(reports); i++ {
			if !bytes.Equal(reports[0], reports[i]) {
				t.Errorf("report from the v%d-decoded trace differs from v1's", versions[i])
			}
		}
	})
}

// forEachWorkload runs f, as a parallel subtest named after the workload,
// on every workload traced at 8 threads. Short mode skips it.
func forEachWorkload(t *testing.T, f func(t *testing.T, tr *trace.Trace)) {
	if testing.Short() {
		t.Skip("traces every workload")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			f(t, traceWorkload(t, w, 8))
		})
	}
}

// TestDecodeParallelMatchesDecode: the lenient fill assembles Decode's
// trace at every worker count, from one to more workers than threads, and
// at 0 (one per core), over indexed and unindexed inputs alike.
func TestDecodeParallelMatchesDecode(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := trace.RandomTrace(seed)
		for _, v := range []int{1, 3} {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr, v); err != nil {
				t.Fatal(err)
			}
			for workers := 0; workers <= len(tr.Threads)+1; workers++ {
				got, err := trace.DecodeWorkers(buf.Bytes(), workers)
				if err != nil {
					t.Fatalf("seed %d v%d workers %d: %v", seed, v, workers, err)
				}
				if !reflect.DeepEqual(tr, got) {
					t.Fatalf("seed %d v%d workers %d: parallel decode mismatch", seed, v, workers)
				}
			}
		}
	}
}

// TestCodecFileRoundTrip: the file writers produce files that
// ReadFileParallel reads back, and only WriteFileIndexed's opens as an
// index.
func TestCodecFileRoundTrip(t *testing.T) {
	tr := trace.RandomTrace(42)
	for _, c := range []struct {
		name    string
		write   func(string, *trace.Trace) error
		indexed bool
	}{
		{"WriteFile", trace.WriteFile, false},
		{"WriteFileIndexed", trace.WriteFileIndexed, true},
	} {
		path := filepath.Join(t.TempDir(), "x.tft")
		if err := c.write(path, tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := trace.ReadFileParallel(path, 1)
		if err != nil {
			t.Fatalf("%s: ReadFileParallel: %v", c.name, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("%s: file round trip mismatch", c.name)
		}
		r, err := trace.OpenFile(path)
		if c.indexed && err != nil {
			t.Errorf("%s: OpenFile: %v", c.name, err)
		}
		if !c.indexed && !errors.Is(err, trace.ErrNoIndex) {
			t.Errorf("%s: OpenFile error = %v, want ErrNoIndex", c.name, err)
		}
		if r != nil {
			r.Close()
		}
	}
}

// checkCodec is one cell of the codec table: it encodes src in the given
// version and reads the bytes back with every decoder — the reference stream
// decoder, Decode, the lenient parallel fill at 1, 4 and 0 workers,
// DecodeStrict, ReadFileParallel through a file, and for v3 Reader.Thread
// per section. Each result must deeply equal both src and the reference
// decode, and a v1 or v2 input must have no index. It returns Decode's
// trace.
func checkCodec(t *testing.T, src *trace.Trace, version int) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, src, version); err != nil {
		t.Fatalf("v%d: encode: %v", version, err)
	}
	data := buf.Bytes()
	ref, err := trace.DecodeStream(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v%d: reference decode: %v", version, err)
	}
	if !reflect.DeepEqual(src, ref) {
		t.Fatalf("v%d: reference decode differs from the encoded trace", version)
	}
	path := filepath.Join(t.TempDir(), "trace.tft")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	type decoder struct {
		name   string
		decode func() (*trace.Trace, error)
	}
	decoders := []decoder{
		{"Decode", func() (*trace.Trace, error) { return trace.Decode(bytes.NewReader(data)) }},
		{"fill/1", func() (*trace.Trace, error) { return trace.DecodeWorkers(data, 1) }},
		{"fill/4", func() (*trace.Trace, error) { return trace.DecodeWorkers(data, 4) }},
		{"fill/0", func() (*trace.Trace, error) { return trace.DecodeWorkers(data, 0) }},
		{"DecodeStrict", func() (*trace.Trace, error) {
			return trace.DecodeStrict(bytes.NewReader(data), int64(len(data)), 0)
		}},
		{"ReadFileParallel", func() (*trace.Trace, error) { return trace.ReadFileParallel(path, 0) }},
	}
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	switch {
	case version != 3:
		if !errors.Is(err, trace.ErrNoIndex) {
			t.Errorf("v%d: NewReader error = %v, want ErrNoIndex", version, err)
		}
	case err != nil:
		t.Fatalf("v%d: NewReader: %v", version, err)
	default:
		decoders = append(decoders, decoder{"Reader.Thread", func() (*trace.Trace, error) { return readerTrace(r) }})
	}
	var decoded *trace.Trace
	for _, d := range decoders {
		got, err := d.decode()
		if err != nil {
			t.Fatalf("v%d %s: %v", version, d.name, err)
		}
		if !reflect.DeepEqual(src, got) || !reflect.DeepEqual(ref, got) {
			t.Fatalf("v%d %s: decoded trace differs from the encoded trace", version, d.name)
		}
		if decoded == nil {
			decoded = got
		}
	}
	return decoded
}

// readerTrace assembles a trace from an indexed Reader's header and its
// thread sections, each decoded on its own.
func readerTrace(r *trace.Reader) (*trace.Trace, error) {
	h := r.Header()
	tr := &trace.Trace{Program: h.Program, Entry: h.Entry, Funcs: h.Funcs}
	for i := 0; i < r.NumThreads(); i++ {
		th, err := r.Thread(i)
		if err != nil {
			return nil, err
		}
		tr.Threads = append(tr.Threads, th)
	}
	return tr, nil
}

// TestEncodeRejectsWhatDecodeRejects: the decoder refuses any declared
// count over 1<<20 and any string over 1 MiB, so Encode must refuse a trace
// that needs one, in every version, before writing a byte, and name the
// field. At the limit both sides accept.
func TestEncodeRejectsWhatDecodeRejects(t *testing.T) {
	const limit = 1 << 20
	long := strings.Repeat("x", limit+1)
	bbl := func(mem []trace.MemAccess, locks []trace.LockOp) *trace.Trace {
		th := &trace.ThreadTrace{TID: 3}
		th.Append(trace.Record{Kind: trace.KindBBL}, mem, locks)
		return &trace.Trace{Threads: []*trace.ThreadTrace{th}}
	}
	for _, c := range []struct {
		field string
		tr    *trace.Trace
	}{
		{"program name length", &trace.Trace{Program: long}},
		{"function 0 name length", &trace.Trace{Funcs: []trace.FuncInfo{{Name: long}}}},
		{"function count", &trace.Trace{Funcs: make([]trace.FuncInfo, limit+1)}},
		{"function 0 block count", &trace.Trace{Funcs: []trace.FuncInfo{{Blocks: make([]trace.BlockInfo, limit+1)}}}},
		{"thread count", &trace.Trace{Threads: make([]*trace.ThreadTrace, limit+1)}},
		{"thread 3 record count", &trace.Trace{Threads: []*trace.ThreadTrace{{TID: 3, Records: make([]trace.Record, limit+1)}}}},
		{"thread 3 record 0 mem access count", bbl(make([]trace.MemAccess, limit+1), nil)},
		{"thread 3 record 0 lock op count", bbl(nil, make([]trace.LockOp, limit+1))},
	} {
		for _, v := range versions {
			var buf bytes.Buffer
			err := trace.Encode(&buf, c.tr, v)
			if err == nil || !strings.Contains(err.Error(), c.field+" ") {
				t.Errorf("%s, v%d: Encode error = %v, want one naming the field", c.field, v, err)
			}
			if buf.Len() != 0 {
				t.Errorf("%s, v%d: Encode wrote %d bytes before failing", c.field, v, buf.Len())
			}
		}
	}
	atLimit := &trace.Trace{
		Program: long[:limit],
		Funcs:   []trace.FuncInfo{{Name: long[:limit], Blocks: make([]trace.BlockInfo, limit)}},
	}
	for _, v := range versions {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, atLimit, v); err != nil {
			t.Fatalf("v%d: Encode at the limits: %v", v, err)
		}
		got, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("v%d: Decode at the limits: %v", v, err)
		}
		if !reflect.DeepEqual(atLimit, got) {
			t.Errorf("v%d: trace at the limits does not round-trip", v)
		}
	}
	var buf bytes.Buffer
	for _, v := range []int{0, 4} {
		if err := trace.Encode(&buf, &trace.Trace{}, v); err == nil || buf.Len() != 0 {
			t.Errorf("Encode accepted version %d", v)
		}
	}
}

// failWriter accepts limit bytes, then fails every write with errFull, or,
// when silent, reports a short write with no error. It records what it
// accepted and any write attempted after the first failure.
type failWriter struct {
	limit  int
	silent bool
	got    []byte
	failed bool
	after  int
}

var errFull = errors.New("device full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.after++
	}
	n := min(len(p), w.limit-len(w.got))
	w.got = append(w.got, p[:n]...)
	if n == len(p) {
		return n, nil
	}
	w.failed = true
	if w.silent {
		return n, nil
	}
	return n, errFull
}

// TestEncodeReturnsWriteErrors: when w fails partway, Encode returns w's
// first error, having written exactly the prefix w accepted and attempted
// nothing after the failure. The failure lands in the header, in a thread
// section, at the last section byte, and (v3) in the footer and trailer.
// The trace's last thread is long enough to need several writes of its own,
// so a failure inside it is followed by more of the same section.
func TestEncodeReturnsWriteErrors(t *testing.T) {
	w, err := workloads.ByName("dsb.post")
	if err != nil {
		t.Fatal(err)
	}
	tr := traceWorkload(t, w, 4)
	long := &trace.ThreadTrace{TID: 4}
	for th := tr.Threads[0]; len(long.Records) < 1<<16; {
		for i := range th.Records {
			long.Append(th.Records[i], th.MemOf(i), th.LocksOf(i))
		}
	}
	tr.Threads = append(tr.Threads, long)
	for _, v := range []int{1, 3} {
		var full bytes.Buffer
		if err := trace.Encode(&full, tr, v); err != nil {
			t.Fatal(err)
		}
		data := full.Bytes()
		if len(data) < 4<<16 {
			t.Fatalf("v%d: %d bytes fit in too few writes", v, len(data))
		}
		at := map[string]int{"header": 2, "long section": len(data) / 2}
		if v == 1 {
			at["last section byte"] = len(data) - 1
		} else {
			footerLen := int(binary.LittleEndian.Uint64(data[len(data)-12:]))
			at["last section byte"] = len(data) - 12 - footerLen - 1
			at["footer"] = len(data) - 12 - footerLen + 1
			at["trailer"] = len(data) - 1
		}
		for where, k := range at {
			for _, silent := range []bool{false, true} {
				want := errFull
				if silent {
					want = io.ErrShortWrite
				}
				fw := &failWriter{limit: k, silent: silent}
				if err := trace.Encode(fw, tr, v); !errors.Is(err, want) {
					t.Errorf("v%d, fail in %s (silent %t): Encode error = %v, want %v", v, where, silent, err, want)
				}
				if !bytes.Equal(fw.got, data[:k]) {
					t.Errorf("v%d, fail in %s: w accepted %d bytes that are not the encoding's first %d", v, where, len(fw.got), k)
				}
				if fw.after != 0 {
					t.Errorf("v%d, fail in %s: Encode wrote %d more times after the failure", v, where, fw.after)
				}
			}
		}
	}
}

// TestLyingIndexCounts: a v3 footer that misdescribes the stream yet still
// validates as an index is trusted only as far as the stream bears it out.
// Each row is one such footer: Decode, DecodeStrictBytes, ReadFileParallel
// and Reader.Decode return the encoded trace, Reader.Thread refuses a
// section the lie breaks and returns no wrong thread before it, and the
// streaming analysis reports exactly what the batch analysis does.
func TestLyingIndexCounts(t *testing.T) {
	w, err := workloads.ByName("rodinia.bfs")
	if err != nil {
		t.Fatal(err)
	}
	tr := traceWorkload(t, w, 16)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(tr, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		lie  func([]byte) []byte
	}{
		{"understated access count", trace.LyingAccessIndex},
		{"wrong tid", trace.WrongTIDIndex},
		{"shifted section boundary", trace.ShiftedBoundaryIndex},
		{"misplaced section", trace.MisplacedIndex},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := c.lie(buf.Bytes())
			if bytes.Equal(data, buf.Bytes()) {
				t.Fatal("the footer edit changed nothing")
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
			if got, err = trace.DecodeStrictBytes(data, 4); err != nil {
				t.Fatalf("DecodeStrictBytes: %v", err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Error("DecodeStrictBytes differs from the encoded trace")
			}
			path := filepath.Join(t.TempDir(), "lying.tft")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err = trace.ReadFileParallel(path, 4); err != nil {
				t.Fatalf("ReadFileParallel: %v", err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Error("ReadFileParallel differs from the encoded trace")
			}
			if got, err = r.Decode(4); err != nil {
				t.Fatalf("Reader.Decode: %v", err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Error("Reader.Decode differs from the encoded trace")
			}
			// Thread trusts the footer entry alone: taken in index order,
			// sections match the encoded threads until the first one the
			// lie breaks, and the lie breaks one.
			failed := false
			for i := 0; i < r.NumThreads() && !failed; i++ {
				th, err := r.Thread(i)
				if failed = err != nil; !failed && !reflect.DeepEqual(tr.Threads[i], th) {
					t.Errorf("Thread(%d) differs from the encoded thread", i)
				}
			}
			if !failed {
				t.Error("every Thread call accepted the lying footer")
			}

			// The stream ingest decodes over parallel workers; in every one
			// of twenty runs it must give the batch report.
			for run := 0; run < 20; run++ {
				if r, err = trace.NewReader(bytes.NewReader(data), int64(len(data))); err != nil {
					t.Fatal(err)
				}
				rep, err := core.AnalyzeStream(r, core.Defaults())
				if err != nil {
					t.Fatalf("AnalyzeStream: %v", err)
				}
				if !reflect.DeepEqual(want, rep) {
					t.Fatal("streaming report differs from the batch report")
				}
			}
		})
	}
}
