package trace

import (
	"bytes"
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

// TestArenaInvariants checks the columnar layout contract over both index
// sources (the v3 footer, and the measuring walk over a v1 stream): spans
// partition the record table in file order, and the Trace view's slices are
// zero-copy aliases of the arena tables (not copies) that cover the access
// and lock tables exactly, in record order.
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
	mi, li := 0, 0
	for i, th := range view.Threads {
		sp := a.Spans[i]
		if th.TID != sp.TID {
			t.Fatalf("%s: thread %d tid %d, span tid %d", name, i, th.TID, sp.TID)
		}
		if len(th.Records) > 0 && &th.Records[0] != &a.Records[sp.Lo] {
			t.Fatalf("%s: thread %d records are not a view into the arena", name, i)
		}
		for j := range th.Records {
			r := &th.Records[j]
			if len(r.Mem) > 0 && &r.Mem[0] != &a.Mem[mi] {
				t.Fatalf("%s: thread %d record %d Mem is not a view into the arena", name, i, j)
			}
			if len(r.Locks) > 0 && &r.Locks[0] != &a.Locks[li] {
				t.Fatalf("%s: thread %d record %d Locks is not a view into the arena", name, i, j)
			}
			mi += len(r.Mem)
			li += len(r.Locks)
		}
	}
	if mi != len(a.Mem) || li != len(a.Locks) {
		t.Fatalf("%s: views cover %d/%d of %d/%d table entries", name, mi, li, len(a.Mem), len(a.Locks))
	}
}
