package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/trace"
)

// indexedReader round-trips a trace through the v3 container and opens an
// indexed Reader over the bytes.
func indexedReader(t *testing.T, tr *trace.Trace) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr, 3); err != nil {
		t.Fatalf("encode indexed: %v", err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("open indexed reader: %v", err)
	}
	return r
}

// TestAnalyzeStreamMatchesBatch is the stream-ingest contract: analyzing
// an indexed Reader must produce a Report deeply equal to the batch Analyze
// of the same container bytes, at every parallelism and with fusion both on
// and off.
func TestAnalyzeStreamMatchesBatch(t *testing.T) {
	for _, name := range []string{"rodinia.bfs", "other.pigz", "usuite.hdsearch.mid"} {
		tr := traceWorkload(t, name, 64)
		r := indexedReader(t, tr)
		for _, par := range []int{1, 0} {
			for _, nofuse := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/par%d/nofuse=%v", name, par, nofuse), func(t *testing.T) {
					opts := Defaults()
					opts.Parallelism = par
					opts.DisableLockstepFusion = nofuse
					want, err := Analyze(tr, opts)
					if err != nil {
						t.Fatalf("batch analyze: %v", err)
					}
					got, err := AnalyzeStream(r, opts)
					if err != nil {
						t.Fatalf("stream analyze: %v", err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("streaming report differs from batch\nbatch:  %+v\nstream: %+v", want, got)
					}
				})
			}
		}
	}
}

// TestSessionIngestCacheHit checks the cached session path over an indexed
// Reader (SetCache, Ingest, Analyze): a second session ingesting the same bytes
// hits the cache without replaying, and its report equals the first bit for
// bit.
func TestSessionIngestCacheHit(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, traceWorkload(t, "rodinia.bfs", 64), 3); err != nil {
		t.Fatal(err)
	}
	c := NewCache(t.TempDir())
	replays := 0
	defer SetReplayTestHook(func() { replays++ })()
	analyze := func() *Report {
		t.Helper()
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession()
		sess.SetCache(c)
		st, err := sess.Ingest(r, 0)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		rep, err := sess.Analyze(st, Defaults())
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		return rep
	}
	first := analyze()
	if replays != 1 {
		t.Fatalf("first ingest replayed %d times, want 1", replays)
	}
	second := analyze()
	if replays != 1 {
		t.Fatalf("second ingest of the same bytes replayed %d more times, want 0", replays-1)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cache hit differs from the stored report")
	}
}

// TestSessionIngestSeedsPreparation proves Ingest's memo seeding: a sweep
// through the session after Ingest produces reports identical to batch
// Analyze without re-preparing (observed via the replay test hook counting
// exactly one replay per configuration).
func TestSessionIngestSeedsPreparation(t *testing.T) {
	tr := traceWorkload(t, "paropoly.nbody", 48)
	r := indexedReader(t, tr)
	sess := NewSession()
	st, err := sess.Ingest(r, 0)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for _, warpSize := range []int{8, 16, 32} {
		opts := Defaults()
		opts.WarpSize = warpSize
		want, err := Analyze(tr, opts)
		if err != nil {
			t.Fatalf("batch analyze w%d: %v", warpSize, err)
		}
		got, err := sess.Analyze(st, opts)
		if err != nil {
			t.Fatalf("session analyze w%d: %v", warpSize, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("w%d: post-ingest session report differs from batch Analyze", warpSize)
		}
	}
}

// TestAnalyzeStreamSurfacesSectionErrors feeds a container whose decoded
// records fail validation and expects the stream ingest to reject it like
// the batch path does.
func TestAnalyzeStreamSurfacesSectionErrors(t *testing.T) {
	tr := traceWorkload(t, "rodinia.bfs", 16)
	// Corrupt one record's instruction count so ValidateThread fails.
	bad := *tr
	bad.Threads = append([]*trace.ThreadTrace(nil), tr.Threads...)
	th := *bad.Threads[3]
	th.Records = append([]trace.Record(nil), th.Records...)
	for i := range th.Records {
		if th.Records[i].Kind == trace.KindBBL {
			th.Records[i].N += 7
			break
		}
	}
	bad.Threads[3] = &th
	r := indexedReader(t, &bad)
	if _, err := AnalyzeStream(r, Defaults()); err == nil {
		t.Fatal("streaming analyze accepted a trace the batch validator rejects")
	}
}

// TestBatchAndStreamFailIdentically pins the shared ingest's error order:
// thread 1 breaks only the frame rule (a block of another function inside
// an invocation) and thread 3 has a wrong instruction count; ValidateThread
// rejects both. Every entry point must report the same error, and it must
// be thread 1's: the first failing thread in trace order wins, whichever
// worker validated it first. A container with an honest
// footer and one damaged section must fail the stream ingest with the batch
// decode's error, which names the damaged section.
func TestBatchAndStreamFailIdentically(t *testing.T) {
	tr := traceWorkload(t, "usuite.hdsearch.mid", 16)
	bad := *tr
	bad.Threads = append([]*trace.ThreadTrace(nil), tr.Threads...)
	// mutate corrupts the first block record of thread i that f accepts;
	// bare says the record carries no accesses or lock ops.
	mutate := func(i int, f func(r *trace.Record, bare bool) bool) {
		th := *bad.Threads[i]
		th.Records = append([]trace.Record(nil), th.Records...)
		for j := range th.Records {
			bare := len(th.MemOf(j)) == 0 && len(th.LocksOf(j)) == 0
			if th.Records[j].Kind == trace.KindBBL && f(&th.Records[j], bare) {
				bad.Threads[i] = &th
				return
			}
		}
		t.Fatalf("thread %d: no record to corrupt (%d funcs)", i, len(bad.Funcs))
	}
	mutate(1, func(r *trace.Record, bare bool) bool {
		// A record without accesses or lock ops: none can then lie outside
		// the other function's block.
		if !bare {
			return false
		}
		for fn := range bad.Funcs {
			if uint32(fn) != r.Func && len(bad.Funcs[fn].Blocks) > 0 {
				r.Func, r.Block = uint32(fn), 0
				r.N = uint64(bad.Funcs[fn].Blocks[0].NInstr)
				return true
			}
		}
		return false
	})
	mutate(3, func(r *trace.Record, _ bool) bool { r.N += 7; return true })
	if err := bad.ValidateThread(bad.Threads[1]); err == nil || !strings.Contains(err.Error(), "inside an invocation of") {
		t.Fatalf("thread 1 must fail validation with its frame defect, got %v", err)
	}

	_, batchErr := Analyze(&bad, Defaults())
	_, _, cachedErr := AnalyzeCached(NewCache(t.TempDir()), &bad, Defaults())
	_, streamErr := AnalyzeStream(indexedReader(t, &bad), Defaults())
	for name, err := range map[string]error{"Analyze": batchErr, "AnalyzeCached": cachedErr, "AnalyzeStream": streamErr} {
		if err == nil {
			t.Fatalf("%s accepted a corrupt trace", name)
		}
	}
	want := fmt.Sprintf("thread %d ", bad.Threads[1].TID)
	if !strings.Contains(batchErr.Error(), want) {
		t.Errorf("batch error %q does not name thread 1", batchErr)
	}
	if cachedErr.Error() != batchErr.Error() || streamErr.Error() != batchErr.Error() {
		t.Errorf("entry points disagree:\nAnalyze:       %v\nAnalyzeCached: %v\nAnalyzeStream: %v",
			batchErr, cachedErr, streamErr)
	}

	bfs := traceWorkload(t, "rodinia.bfs", 16)
	var enc bytes.Buffer
	if err := trace.Encode(&enc, bfs, 3); err != nil {
		t.Fatal(err)
	}
	// Sections are v2 sections, so section k starts where a v2 stream of
	// the first k threads ends (the headers differ only in their version
	// and thread count, one byte each while there are under 128 threads).
	sectionStart := func(k int) int {
		var v2 bytes.Buffer
		if err := trace.Encode(&v2, &trace.Trace{Program: bfs.Program, Entry: bfs.Entry, Funcs: bfs.Funcs,
			Threads: bfs.Threads[:k]}, 2); err != nil {
			t.Fatal(err)
		}
		return v2.Len()
	}
	for _, c := range []struct{ off, section int }{{504, 4}, {1009, 4}, {1261, 4}, {1513, 8}} {
		if c.off < sectionStart(c.section) || c.off+3 > sectionStart(c.section+1) {
			t.Fatalf("bytes %d..%d are not inside section %d", c.off, c.off+2, c.section)
		}
		data := append([]byte(nil), enc.Bytes()...)
		copy(data[c.off:], []byte{0xff, 0xff, 0xff})
		_, batchErr := trace.Decode(bytes.NewReader(data))
		want := fmt.Sprintf("thread section %d:", c.section)
		if batchErr == nil || !strings.Contains(batchErr.Error(), want) {
			t.Fatalf("damage at %d: batch error %v does not name section %d", c.off, batchErr, c.section)
		}
		for _, par := range []int{1, 2, 4} {
			for run := 0; run < 5; run++ {
				opts := Defaults()
				opts.Parallelism = par
				r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					t.Fatal(err)
				}
				_, streamErr := AnalyzeStream(r, opts)
				if streamErr == nil || streamErr.Error() != batchErr.Error() {
					t.Fatalf("damage at %d, parallelism %d: stream error %v, batch error %v", c.off, par, streamErr, batchErr)
				}
			}
		}
	}
}

// TestPrepareStopsAtFirstFailure: once a thread fails validation, the
// ingest outcome is decided, so prepare must not check any later thread.
// Every later thread is nil, which checking would dereference.
func TestPrepareStopsAtFirstFailure(t *testing.T) {
	tr := traceWorkload(t, "rodinia.bfs", 16)
	th := *tr.Threads[0]
	th.Records = append([]trace.Record(nil), th.Records...)
	for i := range th.Records {
		if th.Records[i].Kind == trace.KindBBL {
			th.Records[i].N += 7
			break
		}
	}
	threads := make([]*trace.ThreadTrace, len(tr.Threads))
	threads[0] = &th
	_, err := prepare(&trace.Trace{Program: tr.Program, Funcs: tr.Funcs, Threads: threads}, 1)
	if err == nil || !strings.Contains(err.Error(), "static table says") {
		t.Fatalf("err = %v, want thread 0's validation failure", err)
	}
}
