package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// arenaEdgeTraces are hand-built traces hitting the arena section-size edge
// cases: no threads at all, empty threads between populated ones,
// single-record threads, and a maximal run of identical blocks (the shape
// the fused replay and run-length-friendly layouts care about).
func arenaEdgeTraces() map[string]*Trace {
	funcs := []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 2}, {NInstr: 3}}}}
	longRun := &ThreadTrace{TID: 2}
	for i := 0; i < 5000; i++ {
		longRun.Records = append(longRun.Records, Record{Kind: KindBBL, Func: 0, Block: 0, N: 2})
	}
	return map[string]*Trace{
		"no-threads": {Program: "edge", Funcs: funcs},
		"empty-threads": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			{TID: 0, Records: []Record{}},
			{TID: 1, Records: []Record{{Kind: KindBBL, Func: 0, Block: 1, N: 3}}},
			{TID: 2, Records: []Record{}},
		}},
		"single-record-threads": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			{TID: 0, Records: []Record{{Kind: KindBBL, Func: 0, Block: 0, N: 2,
				Mem: []MemAccess{{Instr: 1, Addr: 1 << 32, Size: 8, Store: true}}}}},
			{TID: 1, Records: []Record{{Kind: KindRet}}},
			{TID: 2, Records: []Record{{Kind: KindSkip, SkipKind: SkipSpin, N: 9}}},
		}},
		"max-run-length": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			longRun,
			{TID: 7, Records: []Record{{Kind: KindBBL, Func: 0, Block: 0, N: 2,
				Locks: []LockOp{{Instr: 0, Addr: 64}, {Instr: 1, Addr: 64, Release: true}}}}},
		}},
	}
}

// TestArenaDecodeMatchesLegacy differentially tests the arena decoder
// against the retained streaming decoder: for random and edge-case traces in
// every container version, both must produce deeply-equal results, as must
// the parallel fill path.
func TestArenaDecodeMatchesLegacy(t *testing.T) {
	encoders := []struct {
		name string
		enc  func(io.Writer, *Trace) error
	}{
		{"v1", Encode},
		{"v2", EncodeCompact},
		{"v3", EncodeIndexed},
	}
	traces := arenaEdgeTraces()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		traces[string(rune('a'+i))+"-random"] = randomTrace(r)
	}
	for name, tr := range traces {
		for _, e := range encoders {
			var buf bytes.Buffer
			if err := e.enc(&buf, tr); err != nil {
				t.Fatalf("%s/%s: encode: %v", name, e.name, err)
			}
			legacy, err := decodeStream(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: legacy decode: %v", name, e.name, err)
			}
			arena, err := DecodeBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%s: arena decode: %v", name, e.name, err)
			}
			if !reflect.DeepEqual(legacy, arena) {
				t.Fatalf("%s/%s: arena decode differs from legacy decode", name, e.name)
			}
			for _, par := range []int{1, 4, 0} {
				got, err := DecodeParallel(bytes.NewReader(buf.Bytes()), int64(buf.Len()), par)
				if err != nil {
					t.Fatalf("%s/%s: parallel decode (par=%d): %v", name, e.name, par, err)
				}
				if !reflect.DeepEqual(legacy, got) {
					t.Fatalf("%s/%s: parallel decode (par=%d) differs from legacy decode", name, e.name, par)
				}
			}
		}
	}
}

// TestArenaInvariants checks the columnar layout contract: offset columns
// are monotone prefix sums closing at the table lengths, spans partition the
// record table in file order, and the Trace view's slices are zero-copy
// aliases of the arena tables (not copies).
func TestArenaInvariants(t *testing.T) {
	for name, tr := range arenaEdgeTraces() {
		var buf bytes.Buffer
		if err := EncodeIndexed(&buf, tr); err != nil {
			t.Fatal(err)
		}
		view, a, err := decodeArena(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.MemOff) != len(a.Records)+1 || len(a.LockOff) != len(a.Records)+1 {
			t.Fatalf("%s: offset columns have %d/%d entries for %d records",
				name, len(a.MemOff), len(a.LockOff), len(a.Records))
		}
		if a.MemOff[0] != 0 || a.LockOff[0] != 0 {
			t.Fatalf("%s: offset columns do not start at 0", name)
		}
		for i := 0; i < len(a.Records); i++ {
			if a.MemOff[i] > a.MemOff[i+1] || a.LockOff[i] > a.LockOff[i+1] {
				t.Fatalf("%s: offset column decreases at record %d", name, i)
			}
		}
		if int(a.MemOff[len(a.Records)]) != len(a.Mem) || int(a.LockOff[len(a.Records)]) != len(a.Locks) {
			t.Fatalf("%s: offset columns do not close at the table lengths", name)
		}
		prev := 0
		for i, sp := range a.Spans {
			if sp.Lo != prev || sp.Hi < sp.Lo {
				t.Fatalf("%s: span %d = %+v does not continue the partition at %d", name, i, sp, prev)
			}
			prev = sp.Hi
		}
		if prev != len(a.Records) {
			t.Fatalf("%s: spans cover %d of %d records", name, prev, len(a.Records))
		}
		if len(view.Threads) != len(a.Spans) {
			t.Fatalf("%s: %d threads for %d spans", name, len(view.Threads), len(a.Spans))
		}
		for i, th := range view.Threads {
			sp := a.Spans[i]
			if th.TID != sp.TID {
				t.Fatalf("%s: thread %d tid %d, span tid %d", name, i, th.TID, sp.TID)
			}
			if len(th.Records) > 0 && &th.Records[0] != &a.Records[sp.Lo] {
				t.Fatalf("%s: thread %d records are not a view into the arena", name, i)
			}
		}
		ri := 0
		for _, th := range view.Threads {
			for j := range th.Records {
				r := &th.Records[j]
				if len(r.Mem) > 0 && &r.Mem[0] != &a.Mem[a.MemOff[ri]] {
					t.Fatalf("%s: record %d Mem is not a view into the arena", name, ri)
				}
				if len(r.Locks) > 0 && &r.Locks[0] != &a.Locks[a.LockOff[ri]] {
					t.Fatalf("%s: record %d Locks is not a view into the arena", name, ri)
				}
				ri++
			}
		}
	}
}

// TestNewArenaRoundTrip flattens traces into arenas and materializes them
// back, requiring a deeply-equal trace with zero-copy views.
func TestNewArenaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	traces := arenaEdgeTraces()
	for i := 0; i < 6; i++ {
		traces[string(rune('a'+i))+"-random"] = randomTrace(r)
	}
	for name, tr := range traces {
		a := NewArena(tr)
		got := a.Trace(tr.Program, tr.Entry, tr.Funcs)
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("%s: NewArena->Trace round trip differs", name)
		}
		var total int
		for _, sp := range a.Spans {
			total += sp.Hi - sp.Lo
		}
		if total != len(a.Records) {
			t.Fatalf("%s: spans cover %d of %d records", name, total, len(a.Records))
		}
	}
}

// TestReadHeaderStopsAtHeader pins the satellite fix: ReadHeader must not
// consume bytes past the header block, even on v1 files with no index. The
// byte left under the cursor must be the first thread section's tid varint.
func TestReadHeaderStopsAtHeader(t *testing.T) {
	tr := &Trace{
		Program: "hdr",
		Funcs:   []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 1}}}},
		Threads: []*ThreadTrace{{TID: 7, Records: []Record{{Kind: KindRet}}}},
	}
	for name, enc := range map[string]func(io.Writer, *Trace) error{
		"v1": Encode, "v2": EncodeCompact, "v3": EncodeIndexed,
	} {
		var buf bytes.Buffer
		if err := enc(&buf, tr); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(buf.Bytes())
		h, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.NumThreads != 1 {
			t.Fatalf("%s: NumThreads = %d, want 1", name, h.NumThreads)
		}
		b, err := r.ReadByte()
		if err != nil {
			t.Fatalf("%s: reading byte after header: %v", name, err)
		}
		if b != 7 {
			t.Fatalf("%s: byte after ReadHeader = %#x, want the tid varint 0x07 (header overread)", name, b)
		}
	}
}

// TestDecodeIntoReuse pins the arena-reuse contract: decoding different
// traces through one arena — shrinking, growing, switching container
// versions — always produces exactly what a fresh decode produces, with no
// stale state bleeding through reused (not re-zeroed) tables.
func TestDecodeIntoReuse(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var seq []*Trace
	for name, tr := range arenaEdgeTraces() {
		_ = name
		seq = append(seq, tr)
	}
	for i := 0; i < 8; i++ {
		seq = append(seq, randomTrace(r))
	}
	encoders := []func(io.Writer, *Trace) error{Encode, EncodeCompact, EncodeIndexed}
	var arena Arena
	for i, tr := range seq {
		enc := encoders[i%len(encoders)]
		var buf bytes.Buffer
		if err := enc(&buf, tr); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("trace %d: fresh decode: %v", i, err)
		}
		reused, err := DecodeInto(buf.Bytes(), &arena)
		if err != nil {
			t.Fatalf("trace %d: reuse decode: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("trace %d (encoder %d): reuse decode differs from fresh decode", i, i%len(encoders))
		}
	}
	// Same bytes twice through one arena: second decode must not allocate
	// new tables (capacity is already exact) and must still be equal.
	var buf bytes.Buffer
	if err := EncodeIndexed(&buf, seq[len(seq)-1]); err != nil {
		t.Fatal(err)
	}
	first, err := DecodeInto(buf.Bytes(), &arena)
	if err != nil {
		t.Fatal(err)
	}
	back := &arena.Records[0]
	second, err := DecodeInto(buf.Bytes(), &arena)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeat decode into the same arena differs")
	}
	if &arena.Records[0] != back {
		t.Fatal("repeat decode reallocated the record table despite sufficient capacity")
	}
}
