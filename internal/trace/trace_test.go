package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomTrace builds a structurally valid random trace: balanced call/ret
// nesting, block ids within the symbol table, in-range access indices.
func randomTrace(r *rand.Rand) *Trace {
	t := &Trace{Program: "rnd", Entry: 0}
	nf := 1 + r.Intn(4)
	for f := 0; f < nf; f++ {
		fi := FuncInfo{Name: "f" + string(rune('a'+f))}
		nb := 1 + r.Intn(5)
		for b := 0; b < nb; b++ {
			fi.Blocks = append(fi.Blocks, BlockInfo{NInstr: uint32(1 + r.Intn(12))})
		}
		t.Funcs = append(t.Funcs, fi)
	}
	nthreads := 1 + r.Intn(4)
	for tid := 0; tid < nthreads; tid++ {
		th := &ThreadTrace{TID: tid}
		depth := 0
		push := func(fn int) {
			th.Append(Record{Kind: KindCall, Callee: uint32(fn)}, nil, nil)
			depth++
		}
		push(0)
		steps := r.Intn(30)
		curFn := []int{0}
		for s := 0; s < steps; s++ {
			fn := curFn[len(curFn)-1]
			blocks := t.Funcs[fn].Blocks
			bi := r.Intn(len(blocks))
			rec := Record{
				Kind:  KindBBL,
				Func:  uint32(fn),
				Block: uint32(bi),
				N:     uint64(blocks[bi].NInstr),
			}
			var mem []MemAccess
			var locks []LockOp
			for m := 0; m < r.Intn(3); m++ {
				mem = append(mem, MemAccess{
					Instr: uint16(r.Intn(int(blocks[bi].NInstr))),
					Addr:  r.Uint64() >> 8,
					Size:  []uint8{1, 2, 4, 8}[r.Intn(4)],
					Store: r.Intn(2) == 0,
				})
			}
			if r.Intn(8) == 0 {
				locks = append(locks, LockOp{
					Instr:   uint16(r.Intn(int(blocks[bi].NInstr))),
					Addr:    r.Uint64() >> 16,
					Release: r.Intn(2) == 0,
				})
			}
			th.Append(rec, mem, locks)
			switch {
			case r.Intn(6) == 0 && depth < 4:
				push(r.Intn(len(t.Funcs)))
				curFn = append(curFn, int(th.Records[len(th.Records)-1].Callee))
			case r.Intn(6) == 0 && depth > 1:
				th.Append(Record{Kind: KindRet}, nil, nil)
				depth--
				curFn = curFn[:len(curFn)-1]
			case r.Intn(10) == 0:
				th.Append(Record{Kind: KindSkip, SkipKind: SkipKind(r.Intn(2)), N: uint64(r.Intn(500))}, nil, nil)
			}
		}
		for depth > 0 {
			// Close each open invocation with a block so Validate's CFG
			// consumers see well-formed streams, then return.
			fn := curFn[len(curFn)-1]
			th.Append(Record{
				Kind: KindBBL, Func: uint32(fn), Block: 0,
				N: uint64(t.Funcs[fn].Blocks[0].NInstr),
			}, nil, nil)
			th.Append(Record{Kind: KindRet}, nil, nil)
			depth--
			curFn = curFn[:len(curFn)-1]
		}
		t.Threads = append(t.Threads, th)
	}
	return t
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("TFTR"),             // truncated after magic
		[]byte("TFTR\x63"),         // wrong version
		[]byte("TFTR\x01\xff\xff"), // implausible string length
	}
	for i, c := range cases {
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
}

func TestValidateAcceptsRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCountingHelpers(t *testing.T) {
	tr := &Trace{
		Program: "p",
		Funcs:   []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 4}}}},
		Threads: []*ThreadTrace{
			{TID: 0, Records: []Record{
				{Kind: KindCall},
				{Kind: KindBBL, N: 4},
				{Kind: KindSkip, SkipKind: SkipIO, N: 10},
				{Kind: KindSkip, SkipKind: SkipSpin, N: 3},
				{Kind: KindRet},
			}},
			{TID: 1, Records: []Record{
				{Kind: KindCall},
				{Kind: KindBBL, N: 4},
				{Kind: KindBBL, N: 4},
				{Kind: KindRet},
			}},
		},
	}
	if got := tr.TotalInstructions(); got != 12 {
		t.Errorf("TotalInstructions = %d, want 12", got)
	}
	io, spin := tr.TotalSkipped()
	if io != 10 || spin != 3 {
		t.Errorf("TotalSkipped = %d/%d, want 10/3", io, spin)
	}
	if tr.FuncName(0) != "f" || tr.FuncName(9) != "f9" {
		t.Errorf("FuncName lookup wrong: %q %q", tr.FuncName(0), tr.FuncName(9))
	}
}

// TestCompactCodecShrinksRealTraces: the v2 format must beat v1 on a trace
// with realistic (spatially local) addresses.
func TestCompactCodecShrinksRealTraces(t *testing.T) {
	tr := &Trace{
		Program: "walk",
		Funcs:   []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 4}}}},
	}
	th := &ThreadTrace{TID: 0}
	th.Append(Record{Kind: KindCall, Callee: 0}, nil, nil)
	base := uint64(0x40_0000_0000)
	for i := 0; i < 500; i++ {
		th.Append(Record{Kind: KindBBL, Func: 0, Block: 0, N: 4},
			[]MemAccess{{Instr: 1, Addr: base + uint64(8*i), Size: 8}}, nil)
	}
	th.Append(Record{Kind: KindRet}, nil, nil)
	tr.Threads = []*ThreadTrace{th}

	var v1, v2 bytes.Buffer
	if err := Encode(&v1, tr, 1); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&v2, tr, 2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len()*3/4 {
		t.Errorf("v2 size %d not well below v1 size %d for an array walk", v2.Len(), v1.Len())
	}
	got, err := Decode(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("compact round trip mismatch")
	}
}

// TestCheckLayoutCatchesGaps: CheckLayout refuses every departure from the
// layout the builders share, each record's offsets being the running counts
// of the tables from 0, including ones Validate accepts because the offsets
// still rise within the tables.
func TestCheckLayoutCatchesGaps(t *testing.T) {
	base := func() *ThreadTrace {
		th := &ThreadTrace{TID: 3}
		th.Append(Record{Kind: KindCall}, nil, nil)
		th.Append(Record{Kind: KindBBL, N: 4}, []MemAccess{{Addr: 8, Size: 8}, {Instr: 1, Addr: 16, Size: 8}}, nil)
		th.Append(Record{Kind: KindBBL, N: 4}, []MemAccess{{Addr: 24, Size: 8}}, []LockOp{{Addr: 64}, {Addr: 64, Release: true}})
		th.Append(Record{Kind: KindRet}, nil, nil)
		return th
	}
	if err := base().CheckLayout(); err != nil {
		t.Fatalf("Append's layout refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*ThreadTrace)
	}{
		{"gap before the first access", func(th *ThreadTrace) {
			for i := range th.Records {
				th.Records[i].MemLo++
			}
			th.Mem = append([]MemAccess{{}}, th.Mem...)
		}},
		{"gap before the first lock op", func(th *ThreadTrace) {
			for i := range th.Records {
				th.Records[i].LockLo++
			}
			th.Locks = append([]LockOp{{}}, th.Locks...)
		}},
		{"access offsets decrease", func(th *ThreadTrace) { th.Records[3].MemLo = 1 }},
		{"lock offsets decrease", func(th *ThreadTrace) { th.Records[2].LockLo, th.Records[3].LockLo = 2, 1 }},
		{"offset past the table", func(th *ThreadTrace) { th.Records[3].MemLo = 4 }},
		{"access moved to the previous block", func(th *ThreadTrace) { th.Records[2].MemLo = 3 }},
		{"table longer than its ranges", func(th *ThreadTrace) { th.Locks = append(th.Locks, LockOp{}) }},
		{"tables without records", func(th *ThreadTrace) { th.Records, th.Ctl = nil, nil }},
		{"control words missing", func(th *ThreadTrace) { th.Ctl = nil }},
		{"control words too few", func(th *ThreadTrace) { th.Ctl = th.Ctl[:len(th.Ctl)-1] }},
		{"control word stale after a record edit", func(th *ThreadTrace) { th.Records[1].N = 5 }},
	} {
		th := base()
		c.mutate(th)
		if err := th.CheckLayout(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestAllocColsSlots: the builders write every record's control word. The
// words Append packs and the words the decoder writes into its arena both
// equal the ones SetThread packs from the records, one per record, and a
// decoded thread's words end at its capacity, so an append to them cannot
// overwrite the next thread's. The trace holds empty threads and threads of
// thousands of records.
func TestAllocColsSlots(t *testing.T) {
	tr := &Trace{Funcs: []FuncInfo{{Name: "f", Blocks: []BlockInfo{{NInstr: 3}}}}}
	for tid, n := range []int{0, 700, 3000, 0, 2500, 4101, 900, 4000, 1} {
		th := &ThreadTrace{TID: tid}
		for j := 0; j < n; j++ {
			th.Append(Record{Kind: KindBBL, N: uint64(j + 7*tid)}, make([]MemAccess, j%9), nil)
		}
		tr.Threads = append(tr.Threads, th)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeStrictBytes(buf.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := NewCols(len(tr.Threads))
	for i, th := range tr.Threads {
		want.SetThread(i, th)
		for _, c := range []struct {
			name string
			ctl  []uint64
		}{{"Append", th.Ctl}, {"decode", dec.Threads[i].Ctl}} {
			if !slices.Equal(c.ctl, want.Ctl[i]) {
				t.Errorf("thread %d: %s wrote %d control words for %d records, unlike SetThread's", i, c.name, len(c.ctl), len(th.Records))
			}
		}
		if ctl := dec.Threads[i].Ctl; len(ctl) != cap(ctl) {
			t.Errorf("thread %d: decoded words have length %d but capacity %d", i, len(ctl), cap(ctl))
		}
	}
}
