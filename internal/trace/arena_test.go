package trace

import (
	"bytes"
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

// TestArenaInvariants checks the columnar layout contract over both index
// sources (the v3 footer, and the measuring walk over a v1 stream): spans
// partition each arena table in file order, and every thread's tables are
// zero-copy aliases of its span of the arena's (not copies), with the
// layout CheckLayout checks.
func TestArenaInvariants(t *testing.T) {
	for name, tr := range arenaEdgeTraces() {
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
		for _, src := range []struct {
			kind  string
			data  []byte
			index []indexEntry
			raw   bool
		}{
			{"footer", v3.Bytes(), r.index, false},
			{"measured", v1.Bytes(), measured, true},
		} {
			a, err := fill(src.data, src.index, src.raw, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, src.kind, err)
			}
			view := a.Trace(tr.Program, tr.Entry, tr.Funcs)
			if !reflect.DeepEqual(tr, view) {
				t.Fatalf("%s/%s: arena view differs from the encoded trace", name, src.kind)
			}
			checkArena(t, name+"/"+src.kind, a, view)
		}
	}
}

func checkArena(t *testing.T, name string, a *Arena, view *Trace) {
	t.Helper()
	var prev Span
	for i, sp := range a.Spans {
		if sp.Lo != prev.Hi || sp.Hi < sp.Lo || sp.MemLo != prev.MemHi || sp.MemHi < sp.MemLo ||
			sp.LockLo != prev.LockHi || sp.LockHi < sp.LockLo {
			t.Fatalf("%s: span %d = %+v does not continue the partition at %+v", name, i, sp, prev)
		}
		prev = sp
	}
	if prev.Hi != len(a.Records) || prev.MemHi != len(a.Mem) || prev.LockHi != len(a.Locks) {
		t.Fatalf("%s: spans cover %d/%d/%d of %d/%d/%d table entries", name,
			prev.Hi, prev.MemHi, prev.LockHi, len(a.Records), len(a.Mem), len(a.Locks))
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
		if len(th.Mem) != sp.MemHi-sp.MemLo || len(th.Mem) > 0 && &th.Mem[0] != &a.Mem[sp.MemLo] {
			t.Fatalf("%s: thread %d Mem is not its span of the arena", name, i)
		}
		if len(th.Locks) != sp.LockHi-sp.LockLo || len(th.Locks) > 0 && &th.Locks[0] != &a.Locks[sp.LockLo] {
			t.Fatalf("%s: thread %d Locks is not its span of the arena", name, i)
		}
		if err := th.CheckLayout(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
		if _, err := fill(nil, []indexEntry{{tid: 4}, en}, false, 1); err == nil || !strings.Contains(err.Error(), "at most") {
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
