package warp

import (
	"testing"
	"testing/quick"

	"threadfuser/internal/trace"
)

func mkTrace(entries []uint32) *trace.Trace {
	t := &trace.Trace{
		Program: "t",
		Funcs:   []trace.FuncInfo{{Name: "f", Blocks: []trace.BlockInfo{{NInstr: 1}, {NInstr: 1}, {NInstr: 1}, {NInstr: 1}}}},
	}
	for tid, e := range entries {
		t.Threads = append(t.Threads, &trace.ThreadTrace{TID: tid, Records: []trace.Record{
			{Kind: trace.KindCall, Callee: 0},
			{Kind: trace.KindBBL, Func: 0, Block: e, N: 1},
			{Kind: trace.KindRet},
		}})
	}
	return t
}

func uniform(n int) []uint32 { return make([]uint32, n) }

func TestRoundRobinPacking(t *testing.T) {
	ws, err := Form(mkTrace(uniform(10)), 4, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	if len(ws) != len(want) {
		t.Fatalf("warps = %d, want %d", len(ws), len(want))
	}
	for i, w := range ws {
		for j, tid := range w {
			if tid != want[i][j] {
				t.Errorf("warp %d lane %d = %d, want %d", i, j, tid, want[i][j])
			}
		}
	}
}

func TestStridedDealing(t *testing.T) {
	ws, err := Form(mkTrace(uniform(8)), 4, Strided)
	if err != nil {
		t.Fatal(err)
	}
	// 2 warps: warp 0 gets 0,2,4,6; warp 1 gets 1,3,5,7.
	want := [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}
	for i, w := range ws {
		for j, tid := range w {
			if tid != want[i][j] {
				t.Errorf("warp %d lane %d = %d, want %d", i, j, tid, want[i][j])
			}
		}
	}
}

func TestGreedyEntryGroupsByFirstBlock(t *testing.T) {
	// Threads alternate entry blocks 0,1,0,1,...: greedy must separate them.
	entries := make([]uint32, 8)
	for i := range entries {
		entries[i] = uint32(i % 2)
	}
	ws, err := Form(mkTrace(entries), 4, GreedyEntry)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("warps = %d, want 2", len(ws))
	}
	for i, w := range ws {
		first := entries[w[0]]
		for _, tid := range w {
			if entries[tid] != first {
				t.Errorf("warp %d mixes entry blocks", i)
			}
		}
	}
}

func TestFormRejectsBadWidth(t *testing.T) {
	if _, err := Form(mkTrace(uniform(4)), 0, RoundRobin); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Form(mkTrace(uniform(4)), -3, RoundRobin); err == nil {
		t.Error("negative width accepted")
	}
}

// TestFormationIsPartition: every formation assigns each thread to exactly
// one warp, and no warp exceeds the width.
func TestFormationIsPartition(t *testing.T) {
	f := func(n uint8, width uint8, kind uint8) bool {
		threads := int(n%60) + 1
		w := int(width%16) + 1
		formation := Formation(kind % 3)
		entries := make([]uint32, threads)
		for i := range entries {
			entries[i] = uint32(i % 3)
		}
		ws, err := Form(mkTrace(entries), w, formation)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, warp := range ws {
			if len(warp) > w || len(warp) == 0 {
				return false
			}
			for _, tid := range warp {
				if seen[tid] {
					return false
				}
				seen[tid] = true
			}
		}
		return len(seen) == threads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTraceThreadSortsLast(t *testing.T) {
	tr := mkTrace(uniform(3))
	tr.Threads = append(tr.Threads, &trace.ThreadTrace{TID: 3}) // empty
	ws, err := Form(tr, 4, GreedyEntry)
	if err != nil {
		t.Fatal(err)
	}
	last := ws[len(ws)-1]
	if last[len(last)-1] != 3 {
		t.Errorf("empty-trace thread not last: %v", ws)
	}
}

func TestParseFormation(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Formation
	}{
		{"round-robin", RoundRobin},
		{"strided", Strided},
		{"greedy", GreedyEntry},
		{"greedy-entry", GreedyEntry},
	} {
		got, err := ParseFormation(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseFormation(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, f := range []Formation{RoundRobin, Strided, GreedyEntry} {
		if got, err := ParseFormation(f.String()); err != nil || got != f {
			t.Errorf("ParseFormation(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
	for _, bad := range []string{"", "Strided", "greedy_entry", "formation(3)"} {
		if _, err := ParseFormation(bad); err == nil {
			t.Errorf("ParseFormation(%q) accepted", bad)
		}
	}
}
