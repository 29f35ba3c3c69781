package trace_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
	"threadfuser/internal/workloads"
)

// fuzzSeedTrace is a small, fully valid two-thread trace exercising every
// record kind, so mutations of its encodings explore the interesting paths.
func fuzzSeedTrace() *trace.Trace {
	t := &trace.Trace{
		Program: "fuzzseed",
		Funcs: []trace.FuncInfo{
			{Name: "main", Blocks: []trace.BlockInfo{{NInstr: 3}, {NInstr: 2}}},
			{Name: "leaf", Blocks: []trace.BlockInfo{{NInstr: 4}}},
		},
	}
	for tid := 0; tid < 2; tid++ {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 3}, []trace.MemAccess{
			{Instr: 1, Addr: vm.GlobalBase + 8*uint64(tid), Size: 8, Store: true},
		}, nil)
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 1}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 1, Block: 0, N: 4}, nil, []trace.LockOp{
			{Instr: 0, Addr: vm.GlobalBase + 64},
			{Instr: 3, Addr: vm.GlobalBase + 64, Release: true},
		})
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindSkip, N: 5, SkipKind: trace.SkipIO}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 1, N: 2}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

// lockSeedTrace is a valid two-thread trace whose lock events hit the
// deadlock and lockset passes' hard cases: a tid-flipped two-lock inversion
// (the classic order cycle), a recursive re-acquire of the inner lock, and a
// release of a word that was never acquired. Mutating its encodings explores
// the lock-op decode paths that the plain fuzzSeedTrace's single balanced
// pair never reaches.
func lockSeedTrace() *trace.Trace {
	t := &trace.Trace{
		Program: "lockseed",
		Funcs: []trace.FuncInfo{
			{Name: "worker", Blocks: []trace.BlockInfo{{NInstr: 8}}},
		},
	}
	const (
		lockA = vm.GlobalBase + 1024
		lockB = vm.GlobalBase + 1088
		stray = vm.GlobalBase + 1152
	)
	for tid := 0; tid < 2; tid++ {
		a, b := uint64(lockA), uint64(lockB)
		if tid == 1 {
			a, b = b, a // inverted nesting order: the seeded cycle
		}
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 8}, []trace.MemAccess{
			{Instr: 3, Addr: vm.GlobalBase + 2048, Size: 8, Store: true},
		}, []trace.LockOp{
			{Instr: 0, Addr: a},
			{Instr: 1, Addr: b},
			{Instr: 2, Addr: b}, // recursive re-acquire
			{Instr: 4, Addr: b, Release: true},
			{Instr: 5, Addr: b, Release: true},
			{Instr: 6, Addr: a, Release: true},
			{Instr: 7, Addr: stray, Release: true}, // bare release
		})
		t.Threads = append(t.Threads, th)
	}
	return t
}

// stridedSeedTrace is a valid four-thread trace whose heap addresses stride
// by thread id — the shape the per-site coalescing histograms (and the static
// memory oracle's dynamic cross-check) aggregate. Each thread replays the
// same block three times: one load site stays tid-contiguous (coalescing into
// few transactions) while one store site scatters by 4 KiB per lane, so the
// same static site observes different per-execution transaction counts and
// fills distinct histogram buckets. Mutations of its encodings explore the
// warp-memory decode and accounting paths with realistic strided traffic.
func stridedSeedTrace() *trace.Trace {
	t := &trace.Trace{
		Program: "strideseed",
		Funcs: []trace.FuncInfo{
			{Name: "stride", Blocks: []trace.BlockInfo{{NInstr: 4}}},
		},
	}
	for tid := 0; tid < 4; tid++ {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		for iter := 0; iter < 3; iter++ {
			th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 4}, []trace.MemAccess{
				{Instr: 1, Addr: vm.HeapBase + 8*uint64(tid) + 64*uint64(iter), Size: 8},
				{Instr: 2, Addr: vm.HeapBase + 4096*uint64(tid) + 32*uint64(iter), Size: 8, Store: true},
			}, nil)
		}
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

// TestStridedSeedExercisesSiteHistograms pins what stridedSeedTrace is for:
// the unmutated seed must be valid (the clean side of the sanitizer
// contract), and replaying it must aggregate per-site transaction histograms
// — repeated executions of the coalesced load landing in the 1-transaction
// bucket, the scattered store in the one-per-lane bucket.
func TestStridedSeedExercisesSiteHistograms(t *testing.T) {
	tr := stridedSeedTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed trace invalid: %v", err)
	}
	rep, err := analysis.Run(tr, analysis.Options{WarpSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("sanitizer reported %d error(s) on the valid seed", rep.Errors)
	}
	opts := core.Defaults()
	opts.WarpSize = 4
	crep, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(crep.MemSites) != 2 {
		t.Fatalf("replay aggregated %d memory sites, want 2", len(crep.MemSites))
	}
	for _, s := range crep.MemSites {
		switch s.Instr {
		case 1: // coalesced load: 4 lanes × 8 bytes, 32-byte aligned
			if s.Execs != 3 || s.MaxTx != 1 || s.Hist[0] != 3 {
				t.Errorf("load site = execs %d maxTx %d hist %v, want 3 executions all in the 1-tx bucket",
					s.Execs, s.MaxTx, s.Hist)
			}
		case 2: // scattered store: one 4 KiB-distant sector per lane
			if s.Execs != 3 || s.MaxTx != 4 || s.Hist[3] != 3 {
				t.Errorf("store site = execs %d maxTx %d hist %v, want 3 executions all in the 4-tx bucket",
					s.Execs, s.MaxTx, s.Hist)
			}
		default:
			t.Errorf("unexpected site at instr %d", s.Instr)
		}
	}
}

// FuzzDecode asserts the decoder's contracts on arbitrary bytes: they never
// panic or exhaust memory in it; Decode and the legacy stream decoder accept
// and reject the same inputs and agree on every accepted trace, as does the
// parallel fill at 4 workers; whatever DecodeStrict accepts, Decode accepts
// as the same trace; and any accepted trace is either valid or diagnosed by
// the sanitize pass (the contract tflint depends on) — never silently
// consumed by the structural passes. CanonicalKey vouches only for what
// DecodeStrict accepts, with the digest of what it decodes, and its Decode
// gives that trace; and it vouches for every encoding of an accepted trace.
// Where NewReader accepts the input, the Reader agrees with Decode and with
// DecodeStrictBytes (checkReader).
func FuzzDecode(f *testing.F) {
	for _, seed := range []*trace.Trace{fuzzSeedTrace(), lockSeedTrace(), stridedSeedTrace()} {
		for _, v := range versions {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, seed, v); err != nil {
				f.Fatal(err)
			}
			b := buf.Bytes()
			f.Add(b)
			f.Add(b[:len(b)/2])
			if len(b) > 12 {
				mut := append([]byte(nil), b...)
				mut[8] ^= 0xff
				mut[len(mut)-4] ^= 0x40
				f.Add(mut)
			}
		}
	}
	// Arena section-size edge cases (empty threads, single-record threads,
	// maximal same-block runs) in the indexed container, plus a variant with
	// a corrupted footer so the index-vs-stream reconciliation paths run.
	for _, tr := range arenaEdgeSeedTraces() {
		var v3e bytes.Buffer
		if err := trace.Encode(&v3e, tr, 3); err != nil {
			f.Fatal(err)
		}
		b := v3e.Bytes()
		f.Add(b)
		if len(b) > 20 {
			mut := append([]byte(nil), b...)
			mut[len(mut)-16] ^= 0x11
			f.Add(mut)
		}
	}
	// Footers that still parse but misdescribe the stream: a header length
	// one byte short, and a section whose access count is understated. The
	// first is no index at all; the second validates as an index, and
	// decode must fall back to the stream.
	for _, seed := range []*trace.Trace{fuzzSeedTrace(), lockSeedTrace()} {
		var v3 bytes.Buffer
		if err := trace.Encode(&v3, seed, 3); err != nil {
			f.Fatal(err)
		}
		f.Add(trace.ShortHeaderIndex(v3.Bytes()))
		f.Add(trace.LyingAccessIndex(v3.Bytes()))
	}
	f.Add([]byte{})
	f.Add([]byte("TFT\x02garbage"))
	// Implausible declared counts: a huge thread count, and a single thread
	// declaring a huge record count. Both must hit the count caps, not drive
	// pathological decode loops.
	f.Add(append([]byte("TFTR\x01\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add(append([]byte("TFTR\x01\x00\x00\x00\x01\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		legacy, lerr := trace.DecodeStream(bytes.NewReader(data))
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Decode error %v, legacy decode error %v", err, lerr)
		}
		par, perr := trace.DecodeWorkers(data, 4)
		if (perr == nil) != (err == nil) {
			t.Fatalf("parallel fill error %v, Decode error %v", perr, err)
		}
		strict, serr := trace.DecodeStrict(bytes.NewReader(data), int64(len(data)), 1)
		if serr == nil && err != nil {
			t.Fatalf("DecodeStrict accepted an input Decode rejects (%v)", err)
		}
		if k, ok := trace.CanonicalKey(data); ok {
			if serr != nil {
				t.Fatalf("CanonicalKey vouched for an input DecodeStrict rejects (%v)", serr)
			}
			if trace.Digest(strict) != k.Sum {
				t.Fatal("CanonicalKey differs from the Digest of the strictly decoded trace")
			}
			keyed, err := k.Decode(data, 4)
			if err != nil {
				t.Fatalf("decoding over the keying walk's index failed: %v", err)
			}
			if !reflect.DeepEqual(keyed, strict) {
				t.Fatal("decoding over the keying walk's index and DecodeStrict disagree")
			}
		}
		checkReader(t, data, tr, err)
		if err != nil {
			return // rejected outright: fine
		}
		checkTiles(t, tr)
		checkCtl(t, tr)
		if !reflect.DeepEqual(tr, legacy) {
			t.Fatal("Decode and the legacy decoder disagree on an accepted input")
		}
		if !reflect.DeepEqual(tr, par) {
			t.Fatal("the parallel fill and Decode disagree on an accepted input")
		}
		if serr == nil && !reflect.DeepEqual(tr, strict) {
			t.Fatal("DecodeStrict and Decode disagree on an accepted input")
		}
		want := trace.Digest(tr)
		for _, v := range versions {
			var enc bytes.Buffer
			if err := trace.Encode(&enc, tr, v); err != nil {
				t.Fatalf("v%d: encoding a decoded trace failed: %v", v, err)
			}
			k, ok := trace.CanonicalKey(enc.Bytes())
			if !ok {
				t.Fatalf("v%d: CanonicalKey refused Encode's output", v)
			}
			if k.Sum != want {
				t.Fatalf("v%d: CanonicalKey of Encode's output differs from Digest", v)
			}
		}
		rep, err := analysis.Run(tr, analysis.Options{WarpSize: 4})
		if err != nil {
			t.Fatalf("lint engine errored on decoded trace: %v", err)
		}
		if verr := tr.Validate(); verr != nil && rep.Errors == 0 {
			t.Fatalf("sanitizer reported no errors for invalid trace (%v)", verr)
		}
	})
}

// checkReader holds a Reader over data, when NewReader accepts it, to what
// Decode made of data (tr, or the error derr): Reader.Decode, which reads
// the sections from the Reader's input, gives the same trace or the same
// error, and so does the batch decode of the bytes, DecodeStrictBytes;
// Thread taken in index order gives Decode's threads until its first error,
// and some Thread call fails if Decode does.
func checkReader(t *testing.T, data []byte, tr *trace.Trace, derr error) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return
	}
	got, err := r.Decode(4)
	if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
		t.Fatalf("Reader.Decode error %v, Decode error %v", err, derr)
	}
	if err == nil && !reflect.DeepEqual(got, tr) {
		t.Fatal("Reader.Decode and Decode disagree on an accepted input")
	}
	batch, berr := trace.DecodeStrictBytes(data, 4)
	if (err == nil) != (berr == nil) || err != nil && err.Error() != berr.Error() {
		t.Fatalf("Reader.Decode error %v, DecodeStrictBytes error %v", err, berr)
	}
	if err == nil && !reflect.DeepEqual(got, batch) {
		t.Fatal("Reader.Decode and DecodeStrictBytes disagree on an accepted input")
	}
	for i := 0; i < r.NumThreads(); i++ {
		th, err := r.Thread(i)
		if err != nil {
			return
		}
		if derr == nil && !reflect.DeepEqual(th, tr.Threads[i]) {
			t.Fatalf("Thread(%d) differs from Decode's thread %d", i, i)
		}
	}
	if derr != nil {
		t.Fatalf("every Thread call accepted an input Decode rejects (%v)", derr)
	}
}

// checkCtl fails t unless every thread of tr carries the control words
// PackCtl packs from its records, one per record.
func checkCtl(t testing.TB, tr *trace.Trace) {
	t.Helper()
	for i, th := range tr.Threads {
		if want := trace.PackCtl(make([]uint64, len(th.Records)), th); !slices.Equal(th.Ctl, want) {
			t.Fatalf("thread %d: decoded control words %x, its records pack to %x", i, th.Ctl, want)
		}
	}
}

// checkTiles fails t unless every thread of tr has the table layout every
// builder gives it: each record's offsets are the running counts of the
// thread's Mem and Locks tables, so the records' ranges tile them in order
// with no gaps. With that layout, reflect.DeepEqual between
// traces built different ways compares the events and nothing else.
func checkTiles(t testing.TB, tr *trace.Trace) {
	t.Helper()
	for _, th := range tr.Threads {
		if err := th.CheckLayout(); err != nil {
			t.Fatal(err)
		}
	}
}

// arenaEdgeSeedTraces are valid traces hitting the arena decoder's
// section-size edge cases: empty threads between populated ones,
// single-record threads, and a long run of identical blocks (maximal
// same-block run length for the fused replay).
func arenaEdgeSeedTraces() []*trace.Trace {
	funcs := []trace.FuncInfo{{Name: "f", Blocks: []trace.BlockInfo{{NInstr: 2}}}}
	longRun := &trace.ThreadTrace{TID: 1}
	for i := 0; i < 300; i++ {
		longRun.Append(trace.Record{Kind: trace.KindBBL, N: 2}, nil, nil)
	}
	one := func(tid int, r trace.Record, mem []trace.MemAccess) *trace.ThreadTrace {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(r, mem, nil)
		return th
	}
	return []*trace.Trace{
		{Program: "edge-empty", Funcs: funcs, Threads: []*trace.ThreadTrace{
			{TID: 0, Records: []trace.Record{}, Ctl: []uint64{}},
			one(1, trace.Record{Kind: trace.KindBBL, N: 2}, nil),
			{TID: 2, Records: []trace.Record{}, Ctl: []uint64{}},
		}},
		{Program: "edge-single", Funcs: funcs, Threads: []*trace.ThreadTrace{
			one(0, trace.Record{Kind: trace.KindBBL, N: 2}, []trace.MemAccess{{Instr: 1, Addr: vm.GlobalBase, Size: 8}}),
			one(1, trace.Record{Kind: trace.KindSkip, SkipKind: trace.SkipIO, N: 3}, nil),
		}},
		{Program: "edge-run", Funcs: funcs, Threads: []*trace.ThreadTrace{longRun}},
	}
}

// roundTripCorpus seeds the round-trip fuzzer with encodings of real traces:
// the synthetic every-record-kind seed plus the arena edge-case traces and
// two small built-in workloads (one memory-heavy, one lock-heavy), in every
// container version.
func roundTripCorpus(f *testing.F) [][]byte {
	traces := []*trace.Trace{fuzzSeedTrace(), lockSeedTrace(), stridedSeedTrace()}
	traces = append(traces, arenaEdgeSeedTraces()...)
	for _, name := range []string{"vectoradd", "seededrace"} {
		w, err := workloads.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		traces = append(traces, traceWorkload(f, w, 4))
	}
	var out [][]byte
	for _, tr := range traces {
		for _, v := range versions {
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr, v); err != nil {
				f.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// FuzzRoundTrip asserts the codec contract the check engine's codec property
// relies on: for any trace the decoder accepts and Validate passes,
// decode(encode(tr)) == tr in every container version, and re-encoding the
// decoded trace reproduces the bytes (encode∘decode is a fixed point).
func FuzzRoundTrip(f *testing.F) {
	for _, b := range roundTripCorpus(f) {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || tr.Validate() != nil {
			return // not a valid trace: out of the round-trip contract
		}
		for _, v := range versions {
			var enc bytes.Buffer
			if err := trace.Encode(&enc, tr, v); err != nil {
				t.Fatalf("v%d: encoding a valid trace failed: %v", v, err)
			}
			got, err := trace.Decode(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("v%d: decoding our own encoding failed: %v", v, err)
			}
			checkCtl(t, got)
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("v%d: decode(encode(tr)) != tr", v)
			}
			var re bytes.Buffer
			if err := trace.Encode(&re, got, v); err != nil {
				t.Fatalf("v%d: re-encoding failed: %v", v, err)
			}
			if !bytes.Equal(re.Bytes(), enc.Bytes()) {
				t.Fatalf("v%d: encode∘decode is not a fixed point (%d vs %d bytes)",
					v, re.Len(), enc.Len())
			}
		}
	})
}
