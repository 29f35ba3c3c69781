package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"threadfuser/internal/pool"
)

// TestReaderThreads: per-thread random access reproduces the encoded
// streams without a whole-trace decode.
func TestReaderThreads(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(11)))
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumThreads() != len(tr.Threads) {
		t.Fatalf("NumThreads = %d, want %d", r.NumThreads(), len(tr.Threads))
	}
	// Random access, deliberately out of order.
	for i := r.NumThreads() - 1; i >= 0; i-- {
		th, err := r.Thread(i)
		if err != nil {
			t.Fatalf("Thread(%d): %v", i, err)
		}
		if th.TID != tr.Threads[i].TID {
			t.Fatalf("Thread(%d).TID = %d, want %d", i, th.TID, tr.Threads[i].TID)
		}
		if !reflect.DeepEqual(th, tr.Threads[i]) {
			t.Fatalf("Thread(%d) mismatch", i)
		}
	}
	if _, err := r.Thread(r.NumThreads()); err == nil {
		t.Error("Thread(out of range) succeeded")
	}
}

func TestOpenFileAndReadFileParallel(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)))
	dir := t.TempDir()
	indexed := filepath.Join(dir, "indexed.tft")
	if err := WriteFileIndexed(indexed, tr); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(indexed)
	if err != nil {
		t.Fatal(err)
	}
	th, err := r.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(th, tr.Threads[0]) {
		t.Error("Thread(0) mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileParallel(indexed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("ReadFileParallel mismatch on indexed file")
	}
	// Unindexed files take the fallback path.
	plain := filepath.Join(dir, "plain.tft")
	if err := writeFile(plain, tr, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(plain); !errors.Is(err, ErrNoIndex) {
		t.Errorf("OpenFile(v2) error = %v, want ErrNoIndex", err)
	}
	got, err = ReadFileParallel(plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("ReadFileParallel mismatch on v2 file")
	}
}

// indexedParts splits a v3 encoding into (body, footer, trailer) so tests
// can corrupt each region independently.
func indexedParts(t *testing.T, tr *Trace) (body, footer, trailer []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < trailerSize {
		t.Fatalf("encoding too short: %d bytes", len(b))
	}
	trailer = b[len(b)-trailerSize:]
	fl := int(binary.LittleEndian.Uint64(trailer[:8]))
	footer = b[len(b)-trailerSize-fl : len(b)-trailerSize]
	return b[:len(b)-trailerSize-fl], footer, trailer
}

// TestTruncatedFooterDegrades: cutting anywhere inside the footer/trailer
// yields ErrNoIndex from NewReader, and the lenient parallel decode still
// succeeds via the sequential path (the thread data is intact).
func TestTruncatedFooterDegrades(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(13)))
	body, footer, trailer := indexedParts(t, tr)
	full := append(append(append([]byte(nil), body...), footer...), trailer...)
	for _, cut := range []int{1, trailerSize - 1, trailerSize, trailerSize + len(footer)/2, trailerSize + len(footer)} {
		data := full[:len(full)-cut]
		if _, err := NewReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("cut %d: NewReader error = %v, want ErrNoIndex", cut, err)
		}
		got, err := decode(data, 2, false)
		if err != nil {
			t.Errorf("cut %d: decode: %v", cut, err)
			continue
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("cut %d: fallback decode mismatch", cut)
		}
	}
}

// rewriteIndex returns a copy of the valid v3 encoding data with its footer
// re-encoded after edit has changed the header length or index entries.
func rewriteIndex(data []byte, edit func(headerLen *int64, index []indexEntry)) []byte {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		panic(err)
	}
	footerLen := int(binary.LittleEndian.Uint64(data[len(data)-trailerSize:]))
	body := data[:len(data)-trailerSize-footerLen]
	headerLen := int64(len(body))
	if len(r.index) > 0 {
		headerLen = r.index[0].off
	}
	index := append([]indexEntry(nil), r.index...)
	edit(&headerLen, index)
	out := append([]byte(nil), body...)
	out = binary.AppendUvarint(out, uint64(headerLen))
	out = binary.AppendUvarint(out, uint64(len(index)))
	for _, e := range index {
		for _, v := range []int64{int64(e.tid), e.off, e.len, e.nrec, e.nmem, e.nlock} {
			out = binary.AppendUvarint(out, uint64(v))
		}
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(len(out)-len(body)))
	return append(out, indexMagic...)
}

// TestIndexOffsetsPastEOFDegrade: a footer whose sections do not tile the
// data region, whose header length disagrees with the header, or whose
// table sizes no section could hold, is rejected
// as ErrNoIndex, and the lenient parallel decode falls back to the stream
// decode rather than erroring.
func TestIndexOffsetsPastEOFDegrade(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(17)))
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(headerLen *int64, index []indexEntry)
	}{
		{"offset past EOF", func(_ *int64, ix []indexEntry) { ix[0].off = int64(buf.Len()) + 1000 }},
		{"length past EOF", func(_ *int64, ix []indexEntry) { ix[0].len = 1 << 30 }},
		{"offset inside header", func(_ *int64, ix []indexEntry) { ix[0].off = 1 }},
		// The footer understates the header length and the first section
		// starts where it says the header ends: the sections still tile,
		// but the header does not fit.
		{"short header length", func(h *int64, ix []indexEntry) { *h--; ix[0].off--; ix[0].len++ }},
		// Counts of 2^64-1, which read back as -1: the decoder once sized a
		// table from them and panicked.
		{"access count past int64", func(_ *int64, ix []indexEntry) { ix[0].nmem = -1 }},
		{"lock op count past int64", func(_ *int64, ix []indexEntry) { ix[0].nlock = -1 }},
	} {
		data := rewriteIndex(buf.Bytes(), c.edit)
		if _, err := NewReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrNoIndex) {
			t.Errorf("%s: NewReader error = %v, want ErrNoIndex", c.name, err)
		}
		got, err := decode(data, 2, false)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("%s: fallback decode mismatch", c.name)
		}
	}
}

// TestDecodeCapsThreadAndRecordCounts: the count caps cover the thread count
// and the per-thread record count, so a corrupt header cannot drive
// pathological decode loops (the counts the fuzz-hardening pass previously
// left unchecked).
func TestDecodeCapsThreadAndRecordCounts(t *testing.T) {
	// v1 header: program "", entry 0, 0 funcs, then an absurd thread count.
	hugeThreads := append([]byte("TFTR\x01\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f)
	// Same header, 1 thread with tid 0 and an absurd record count.
	hugeRecords := append([]byte("TFTR\x01\x00\x00\x00\x01\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f)
	for name, data := range map[string][]byte{
		"thread count": hugeThreads,
		"record count": hugeRecords,
	} {
		_, err := Decode(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: implausible count decoded successfully", name)
			continue
		}
		if want := "implausible"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}
}

// countingReaderAt is an io.ReaderAt that records the length of every read.
type countingReaderAt struct {
	ra    io.ReaderAt
	mu    sync.Mutex
	reads []int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.reads = append(c.reads, len(p))
	c.mu.Unlock()
	return c.ra.ReadAt(p, off)
}

// chunkTrace returns a trace whose v3 sections span many of Reader.fill's
// runs: 1000 threads of 150 block records, and, among them, one thread of
// 20000 records whose section alone is larger than runCap.
func chunkTrace() *Trace {
	r := rand.New(rand.NewSource(29))
	t := &Trace{Program: "chunks", Funcs: []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 4}, {NInstr: 6}}}}}
	for tid := 0; tid < 1000; tid++ {
		n := 150
		if tid == 17 {
			n = 20000
		}
		th := &ThreadTrace{TID: tid}
		for j := 0; j < n; j++ {
			blk := r.Intn(2)
			mem := make([]MemAccess, r.Intn(3))
			for m := range mem {
				mem[m] = MemAccess{Instr: uint16(r.Intn(4)), Addr: r.Uint64() >> 20, Size: 8, Store: r.Intn(2) == 0}
			}
			th.Append(Record{Kind: KindBBL, Block: uint32(blk), N: uint64(4 + 2*blk)}, mem, nil)
		}
		t.Threads = append(t.Threads, th)
	}
	return t
}

// TestReaderDecodeReadsInChunks: Reader.Decode reads the thread sections
// straight from its input, in runs of at most runCap bytes or one larger
// section, each byte of the data region once, and never copies the file
// whole; what it returns is what DecodeStrictBytes returns.
func TestReaderDecodeReadsInChunks(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, chunkTrace(), 3); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := DecodeStrictBytes(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		cr := &countingReaderAt{ra: bytes.NewReader(data)}
		r, err := NewReader(cr, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		var largest int64
		for _, en := range r.index {
			largest = max(largest, en.len)
		}
		if largest <= runCap {
			t.Fatalf("largest section is %d bytes, want one over runCap (%d)", largest, runCap)
		}
		last := r.index[len(r.index)-1]
		region := last.off + last.len - r.index[0].off
		cr.reads = nil
		got, err := r.Decode(par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: Reader.Decode differs from DecodeStrictBytes", par)
		}
		var total int64
		for _, n := range cr.reads {
			if int64(n) > max(runCap, largest) {
				t.Errorf("parallelism %d: one read of %d bytes, over max(runCap, largest section) = %d", par, n, max(runCap, largest))
			}
			total += int64(n)
		}
		if total != region {
			t.Errorf("parallelism %d: read %d bytes in %d reads, want the %d-byte data region once", par, total, len(cr.reads), region)
		}
		t.Logf("parallelism %d: %d reads over a %d-byte data region", par, len(cr.reads), region)
		if len(cr.reads) < pool.MinParallelItems {
			t.Errorf("parallelism %d: %d reads, want at least %d runs", par, len(cr.reads), pool.MinParallelItems)
		}
	}
}

// TestInflatedFooterAllocation: a footer cannot make a decode allocate more
// than the body's bytes could hold. The tables a footer entry sizes take at
// most 48 bytes per section byte (a 48-byte record and control word per
// minRecordBytes), so a lying footer costs at most 48 × the body on top of
// the honest decode the fallback then runs, plus per-thread headers (span,
// index entries, ThreadTrace) and the footer and header parses. The body is
// a v3 encoding of random threads; one footer sets every entry's counts to
// its section length, which the per-count check of old accepted (76 × the
// body), and one sits exactly at the bound, all records. Both decode,
// leniently, to the encoded trace.
func TestInflatedFooterAllocation(t *testing.T) {
	tr := &Trace{Program: "inflated"}
	for seed := int64(0); len(tr.Threads) < 64; seed++ {
		rt := randomTrace(rand.New(rand.NewSource(seed)))
		if tr.Funcs == nil {
			tr.Funcs = rt.Funcs
		}
		for _, th := range rt.Threads {
			th.TID = len(tr.Threads)
			tr.Threads = append(tr.Threads, th)
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	allocated := func(data []byte) uint64 {
		least := uint64(math.MaxUint64)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode(data, 1, false)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	want, err := decode(body, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	honest := allocated(body)
	const perThread = 512
	limit := 48*uint64(len(body)) + honest + perThread*uint64(len(tr.Threads)) + 4096
	for _, c := range []struct {
		name string
		edit func(*int64, []indexEntry)
	}{
		{"counts at the section length", func(_ *int64, ix []indexEntry) {
			for i := range ix {
				ix[i].nrec, ix[i].nmem, ix[i].nlock = ix[i].len, ix[i].len, ix[i].len
			}
		}},
		{"records at the bound", func(_ *int64, ix []indexEntry) {
			for i := range ix {
				ix[i].nrec, ix[i].nmem, ix[i].nlock = ix[i].len/minRecordBytes, 0, 0
			}
		}},
	} {
		data := rewriteIndex(body, c.edit)
		if dec, err := decode(data, 1, false); err != nil || !reflect.DeepEqual(dec, want) {
			t.Errorf("%s: decode differs from the encoded trace (error %v)", c.name, err)
		}
		got := allocated(data)
		t.Logf("%s: %d-byte body, honest decode %d bytes (%.1f×), lying footer %d bytes (%.1f×)",
			c.name, len(body), honest, float64(honest)/float64(len(body)), got, float64(got)/float64(len(body)))
		if got > limit {
			t.Errorf("%s: decode allocated %d bytes, over the %d that 48 × the %d-byte body, the honest decode and the per-thread headers allow",
				c.name, got, limit, len(body))
		}
	}
}
