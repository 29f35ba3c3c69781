package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// filterFixture: entry "main" calls "lib" (which calls "leaf") then "hot".
func filterFixture() *Trace {
	return &Trace{
		Program: "p",
		Entry:   0,
		Funcs: []FuncInfo{
			{Name: "main", Blocks: []BlockInfo{{NInstr: 2}, {NInstr: 2}, {NInstr: 1}}},
			{Name: "lib", Blocks: []BlockInfo{{NInstr: 5}}},
			{Name: "leaf", Blocks: []BlockInfo{{NInstr: 3}}},
			{Name: "hot", Blocks: []BlockInfo{{NInstr: 7}}},
		},
		Threads: []*ThreadTrace{{TID: 0, Records: []Record{
			{Kind: KindCall, Callee: 0},
			{Kind: KindBBL, Func: 0, Block: 0, N: 2},
			{Kind: KindCall, Callee: 1},
			{Kind: KindBBL, Func: 1, Block: 0, N: 5},
			{Kind: KindCall, Callee: 2},
			{Kind: KindBBL, Func: 2, Block: 0, N: 3},
			{Kind: KindRet},
			{Kind: KindRet},
			{Kind: KindBBL, Func: 0, Block: 1, N: 2},
			{Kind: KindCall, Callee: 3},
			{Kind: KindBBL, Func: 3, Block: 0, N: 7},
			{Kind: KindRet},
			{Kind: KindBBL, Func: 0, Block: 2, N: 1},
			{Kind: KindRet},
		}}},
	}
}

func TestExcludeFunctionsDropsSubtree(t *testing.T) {
	tr := filterFixture()
	out, err := ExcludeFunctions(tr, "lib")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("filtered trace invalid: %v", err)
	}
	// lib (5) + leaf (3) dropped and accounted as skipped.
	if got := out.TotalInstructions(); got != 12 {
		t.Errorf("instructions = %d, want 12 (2+2+7+1)", got)
	}
	io, _ := out.TotalSkipped()
	if io != 8 {
		t.Errorf("skipped = %d, want 8 (lib subtree)", io)
	}
	// No record of lib or leaf survives.
	for _, r := range out.Threads[0].Records {
		if r.Kind == KindBBL && (r.Func == 1 || r.Func == 2) {
			t.Errorf("excluded function's block survived: %+v", r)
		}
		if r.Kind == KindCall && (r.Callee == 1 || r.Callee == 2) {
			t.Errorf("excluded call survived: %+v", r)
		}
	}
}

func TestExcludeUnknownFunctionErrors(t *testing.T) {
	if _, err := ExcludeFunctions(filterFixture(), "nope"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestExcludeEntryEmptiesThread(t *testing.T) {
	out, err := ExcludeFunctions(filterFixture(), "main")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalInstructions(); got != 0 {
		t.Errorf("instructions = %d, want 0", got)
	}
	io, _ := out.TotalSkipped()
	if io != 20 {
		t.Errorf("skipped = %d, want 20 (everything)", io)
	}
}

func TestOnlyFunctionsKeepsRegionWithCallees(t *testing.T) {
	out, err := OnlyFunctions(filterFixture(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("filtered trace invalid: %v", err)
	}
	// Only lib (5) and its callee leaf (3) survive.
	if got := out.TotalInstructions(); got != 8 {
		t.Errorf("instructions = %d, want 8", got)
	}
	io, _ := out.TotalSkipped()
	if io != 12 {
		t.Errorf("skipped = %d, want 12 (main + hot)", io)
	}
	for _, r := range out.Threads[0].Records {
		if r.Kind == KindBBL && (r.Func == 0 || r.Func == 3) {
			t.Errorf("unkept block survived: %+v", r)
		}
	}
}

func TestOnlyFunctionsMultipleRegions(t *testing.T) {
	out, err := OnlyFunctions(filterFixture(), "leaf", "hot")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalInstructions(); got != 10 { // leaf 3 + hot 7
		t.Errorf("instructions = %d, want 10", got)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestFiltersPreserveOriginal(t *testing.T) {
	tr := filterFixture()
	before := tr.TotalInstructions()
	if _, err := ExcludeFunctions(tr, "lib"); err != nil {
		t.Fatal(err)
	}
	if _, err := OnlyFunctions(tr, "hot"); err != nil {
		t.Fatal(err)
	}
	if tr.TotalInstructions() != before || len(tr.Threads[0].Records) != 14 {
		t.Error("filters mutated the input trace")
	}
}

// TestFilterOutputsTileTables filters random traces that carry accesses and
// lock ops: every output thread's records tile its tables in order with no
// gaps (the layout the decoder produces, so DeepEqual against a decoded
// trace compares events), and each kept block record keeps exactly its
// source record's accesses and lock ops.
func TestFilterOutputsTileTables(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		for _, fi := range tr.Funcs {
			for op, filter := range map[string]func(*Trace, ...string) (*Trace, error){
				"exclude": ExcludeFunctions, "only": OnlyFunctions,
			} {
				out, err := filter(tr, fi.Name)
				if err != nil {
					t.Fatal(err)
				}
				for ti, th := range out.Threads {
					if err := th.CheckLayout(); err != nil {
						t.Fatalf("seed %d %s %s: %v", seed, op, fi.Name, err)
					}
					// Each kept block record is, in source order, a source
					// block record with the same accesses and lock ops.
					src := tr.Threads[ti]
					si := 0
					for ri := range th.Records {
						r := &th.Records[ri]
						if r.Kind != KindBBL {
							continue
						}
						for ; si < len(src.Records); si++ {
							s := &src.Records[si]
							if s.Kind == KindBBL && s.Func == r.Func && s.Block == r.Block &&
								slices.Equal(th.MemOf(ri), src.MemOf(si)) && slices.Equal(th.LocksOf(ri), src.LocksOf(si)) {
								break
							}
						}
						if si == len(src.Records) {
							t.Fatalf("seed %d %s %s: thread %d record %d has a payload no source record has", seed, op, fi.Name, ti, ri)
						}
						si++
					}
				}
			}
		}
	}
}
