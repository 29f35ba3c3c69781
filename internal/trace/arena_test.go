package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// arenaEdgeTraces are hand-built traces hitting the arena section-size edge
// cases: no threads at all, empty threads between populated ones,
// single-record threads, and a maximal run of identical blocks (the shape
// the fused replay and run-length-friendly layouts care about).
func arenaEdgeTraces() map[string]*Trace {
	funcs := []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 2}, {NInstr: 3}}}}
	longRun := &ThreadTrace{TID: 2}
	for i := 0; i < 5000; i++ {
		longRun.Append(Record{Kind: KindBBL, Func: 0, Block: 0, N: 2}, nil, nil)
	}
	one := func(tid int, r Record, mem []MemAccess, locks []LockOp) *ThreadTrace {
		th := &ThreadTrace{TID: tid}
		th.Append(r, mem, locks)
		return th
	}
	return map[string]*Trace{
		"no-threads": {Program: "edge", Funcs: funcs},
		"empty-threads": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			{TID: 0, Records: []Record{}, Ctl: []uint64{}},
			one(1, Record{Kind: KindBBL, Func: 0, Block: 1, N: 3}, nil, nil),
			{TID: 2, Records: []Record{}, Ctl: []uint64{}},
		}},
		"single-record-threads": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			one(0, Record{Kind: KindBBL, Func: 0, Block: 0, N: 2}, []MemAccess{{Instr: 1, Addr: 1 << 32, Size: 8, Store: true}}, nil),
			one(1, Record{Kind: KindRet}, nil, nil),
			one(2, Record{Kind: KindSkip, SkipKind: SkipSpin, N: 9}, nil, nil),
		}},
		"max-run-length": {Program: "edge", Funcs: funcs, Threads: []*ThreadTrace{
			longRun,
			one(7, Record{Kind: KindBBL, Func: 0, Block: 0, N: 2}, nil, []LockOp{{Instr: 0, Addr: 64}, {Instr: 1, Addr: 64, Release: true}}),
		}},
	}
}

// chunkedTrace is a trace of 48 threads of uneven sizes, large enough that
// every fill groups its sections into several chunks: most threads make
// accesses and some take locks, and every eleventh thread is empty.
func chunkedTrace() *Trace {
	t := &Trace{Program: "chunks", Funcs: []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 4}, {NInstr: 2}}}}}
	for tid := 0; tid < 48; tid++ {
		th := &ThreadTrace{TID: tid}
		if tid%11 == 0 {
			th.Records, th.Ctl = []Record{}, []uint64{}
			t.Threads = append(t.Threads, th)
			continue
		}
		th.Append(Record{Kind: KindCall}, nil, nil)
		for i := 0; i < 20+(tid*37)%90; i++ {
			var mem []MemAccess
			if tid%5 != 0 {
				mem = []MemAccess{{Instr: 1, Addr: uint64(tid)<<20 + uint64(i)*8, Size: 8, Store: i%3 == 0}}
			}
			var locks []LockOp
			if tid%4 == 0 && i%7 == 0 {
				locks = []LockOp{{Instr: 2, Addr: 64}, {Instr: 3, Addr: 64, Release: true}}
			}
			th.Append(Record{Kind: KindBBL, N: 4}, mem, locks)
			th.Append(Record{Kind: KindBBL, Block: 1, N: 2}, nil, nil)
		}
		th.Append(Record{Kind: KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

// TestArenaInvariants checks the chunked layout contract (checkArena) over
// every index source — the v3 footer and the measuring walk over a v1
// stream, both filled from memory, and the footer filled by Reader.fill
// from the Reader's input — at parallelism 1 and 4, on the edge traces and
// on chunkedTrace, which must fill at least three chunks.
func TestArenaInvariants(t *testing.T) {
	traces := arenaEdgeTraces()
	traces["chunked"] = chunkedTrace()
	for name, tr := range traces {
		var v1, v3 bytes.Buffer
		if err := Encode(&v1, tr, 1); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&v3, tr, 3); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(v3.Bytes()), int64(v3.Len()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := &bdec{data: v1.Bytes()}
		h := d.header()
		measured, _, err := measureStream(v1.Bytes(), d.off, h.NumThreads)
		if err != nil {
			t.Fatalf("%s: measure: %v", name, err)
		}
		for _, par := range []int{1, 4} {
			for _, src := range []struct {
				kind string
				fill func() (*Arena, error)
			}{
				{"footer", func() (*Arena, error) { return fill(v3.Bytes(), nil, r.index, false, par) }},
				{"measured", func() (*Arena, error) { return fill(v1.Bytes(), nil, measured, true, par) }},
				{"reader", func() (*Arena, error) { return r.fill(par) }},
			} {
				where := fmt.Sprintf("%s/%s/parallelism %d", name, src.kind, par)
				a, err := src.fill()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				view := a.Trace(tr.Program, tr.Entry, tr.Funcs)
				if !reflect.DeepEqual(tr, view) {
					t.Fatalf("%s: arena view differs from the encoded trace", where)
				}
				if name == "chunked" && len(a.Chunks) < 3 {
					t.Fatalf("%s: %d chunks, want at least 3", where, len(a.Chunks))
				}
				checkArena(t, where, a, view)
			}
		}
	}
}

// checkArena checks that the chunks tile the spans in file order, that each
// chunk's spans tile that chunk's tables, that every thread's four tables
// are zero-copy views inside its chunk which end at their capacity, with
// the layout CheckLayout checks, and that an append to a chunk's last
// thread copies its entries instead of writing past them.
func checkArena(t *testing.T, name string, a *Arena, view *Trace) {
	t.Helper()
	if len(view.Threads) != len(a.Spans) {
		t.Fatalf("%s: %d threads for %d spans", name, len(view.Threads), len(a.Spans))
	}
	next := 0
	for j, c := range a.Chunks {
		if c.Lo != next || c.Hi <= c.Lo {
			t.Fatalf("%s: chunk %d holds spans [%d,%d), want a non-empty run from %d", name, j, c.Lo, c.Hi, next)
		}
		next = c.Hi
		var prev Span
		for i := c.Lo; i < c.Hi; i++ {
			sp := a.Spans[i]
			if sp.Lo != prev.Hi || sp.Hi < sp.Lo || sp.MemLo != prev.MemHi || sp.MemHi < sp.MemLo ||
				sp.LockLo != prev.LockHi || sp.LockHi < sp.LockLo {
				t.Fatalf("%s: chunk %d span %d = %+v does not continue the partition at %+v", name, j, i, sp, prev)
			}
			prev = sp
		}
		if prev.Hi != len(c.Records) || prev.Hi != len(c.Ctl) || prev.MemHi != len(c.Mem) || prev.LockHi != len(c.Locks) {
			t.Fatalf("%s: chunk %d spans cover %d/%d/%d of %d/%d/%d/%d table entries", name, j,
				prev.Hi, prev.MemHi, prev.LockHi, len(c.Records), len(c.Ctl), len(c.Mem), len(c.Locks))
		}
		for i := c.Lo; i < c.Hi; i++ {
			th, sp := view.Threads[i], a.Spans[i]
			if th.TID != sp.TID {
				t.Fatalf("%s: thread %d tid %d, span tid %d", name, i, th.TID, sp.TID)
			}
			for _, tab := range []struct {
				what         string
				n, cap, want int
				inChunk      bool
			}{
				{"Records", len(th.Records), cap(th.Records), sp.Hi - sp.Lo, len(th.Records) == 0 || &th.Records[0] == &c.Records[sp.Lo]},
				{"Ctl", len(th.Ctl), cap(th.Ctl), sp.Hi - sp.Lo, len(th.Ctl) == 0 || &th.Ctl[0] == &c.Ctl[sp.Lo]},
				{"Mem", len(th.Mem), cap(th.Mem), sp.MemHi - sp.MemLo, len(th.Mem) == 0 || &th.Mem[0] == &c.Mem[sp.MemLo]},
				{"Locks", len(th.Locks), cap(th.Locks), sp.LockHi - sp.LockLo, len(th.Locks) == 0 || &th.Locks[0] == &c.Locks[sp.LockLo]},
			} {
				if tab.n != tab.want || tab.cap != tab.n || !tab.inChunk {
					t.Fatalf("%s: thread %d %s (len %d, cap %d) is not its span's %d entries of chunk %d", name, i, tab.what, tab.n, tab.cap, tab.want, j)
				}
			}
			if err := th.CheckLayout(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if last := view.Threads[c.Hi-1]; len(last.Records) > 0 {
			recs, ctl := append(last.Records, Record{}), append(last.Ctl, 0)
			if &recs[0] == &last.Records[0] || &ctl[0] == &last.Ctl[0] {
				t.Fatalf("%s: an append to chunk %d's last thread wrote into its tables", name, j)
			}
			if len(last.Mem) > 0 {
				if mem := append(last.Mem, MemAccess{}); &mem[0] == &last.Mem[0] {
					t.Fatalf("%s: an access appended to chunk %d's last thread went into its table", name, j)
				}
			}
			if len(last.Locks) > 0 {
				if locks := append(last.Locks, LockOp{}); &locks[0] == &last.Locks[0] {
					t.Fatalf("%s: a lock op appended to chunk %d's last thread went into its table", name, j)
				}
			}
		}
	}
	if next != len(a.Spans) {
		t.Fatalf("%s: chunks cover %d of %d spans", name, next, len(a.Spans))
	}
}

// TestRecordIsPointerFree pins the decoded tables' layout: Record,
// MemAccess and LockOp hold no field the garbage collector must scan (a
// pointer, slice, string, map, channel, function or interface), so every
// record, access and lock table is a noscan allocation, and a Record is at
// most 32 bytes, two to a cache line (and an access or lock op at most 16).
// A field that breaks either brings back GC marking of the largest table a
// decode allocates, or a sixth more of it.
func TestRecordIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the GC would scan every table of it", path, typ.Kind())
		}
	}
	for _, v := range []any{Record{}, MemAccess{}, LockOp{}} {
		typ := reflect.TypeOf(v)
		walk(typ.Name(), typ)
	}
	if n := unsafe.Sizeof(Record{}); n > 32 {
		t.Errorf("Record is %d bytes, want at most 32", n)
	}
	if m, l := unsafe.Sizeof(MemAccess{}), unsafe.Sizeof(LockOp{}); m > 16 || l > 16 {
		t.Errorf("MemAccess and LockOp are %d and %d bytes, want at most 16 each", m, l)
	}
}

// TestFillRefusesOffsetOverflow: a section declaring more accesses or lock
// ops than Record's uint32 running offsets count is refused by fill and by
// Reader.Thread with an error, before any table is sized from it (the
// synthetic entries below would otherwise ask for tens of gigabytes).
func TestFillRefusesOffsetOverflow(t *testing.T) {
	for _, en := range []indexEntry{
		{tid: 5, nrec: 1, nmem: math.MaxUint32 + 1},
		{tid: 5, nrec: 1, nlock: math.MaxUint32 + 1},
		{tid: 5, nrec: 2, nmem: math.MaxUint32 + 1, nlock: math.MaxUint32 + 1},
	} {
		if _, err := fill(nil, nil, []indexEntry{{tid: 4}, en}, false, 1); err == nil || !strings.Contains(err.Error(), "at most") {
			t.Errorf("fill over %+v: error %v, want the offset-width refusal", en, err)
		}
		if _, err := (&Reader{index: []indexEntry{en}}).Thread(0); err == nil || !strings.Contains(err.Error(), "at most") {
			t.Errorf("Reader.Thread over %+v: error %v, want the offset-width refusal", en, err)
		}
	}
	// At the limit the entry passes the guard (and fails later, on the
	// stream, which this test does not build): the offset past a thread's
	// last access is its access count, which still fits.
	if err := (indexEntry{nmem: math.MaxUint32, nlock: math.MaxUint32}).checkWidths(); err != nil {
		t.Errorf("an entry at the limit is refused: %v", err)
	}
}
