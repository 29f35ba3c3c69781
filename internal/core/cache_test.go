package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
	"threadfuser/internal/warp"
)

// cacheTestTrace builds a small two-thread trace with a divergent branch and
// memory traffic, so the cached Report has non-trivial content to compare.
func cacheTestTrace() *trace.Trace {
	t := &trace.Trace{
		Program: "cachetest",
		Funcs: []trace.FuncInfo{
			{Name: "main", Blocks: []trace.BlockInfo{{NInstr: 2}, {NInstr: 3}, {NInstr: 1}}},
		},
	}
	for tid := 0; tid < 2; tid++ {
		th := &trace.ThreadTrace{TID: tid}
		th.Append(trace.Record{Kind: trace.KindCall, Callee: 0}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 0, N: 2},
			[]trace.MemAccess{{Instr: 0, Addr: vm.GlobalBase + 256*uint64(tid), Size: 8}}, nil)
		if tid == 0 {
			th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 1, N: 3}, nil, nil)
		}
		th.Append(trace.Record{Kind: trace.KindBBL, Func: 0, Block: 2, N: 1}, nil, nil)
		th.Append(trace.Record{Kind: trace.KindRet}, nil, nil)
		t.Threads = append(t.Threads, th)
	}
	return t
}

// reportJSON canonicalizes a report for comparison.
func reportJSON(t *testing.T, r *Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// nopListener satisfies simt.Listener without observing anything.
type nopListener struct{}

func (nopListener) OnBlock(*simt.BlockExec) {}

// countReplays installs the replay hook for the duration of the test and
// returns a pointer to the invocation counter.
func countReplays(t *testing.T) *int {
	t.Helper()
	n := 0
	testHookReplay = func() { n++ }
	t.Cleanup(func() { testHookReplay = nil })
	return &n
}

func testOpts() Options {
	o := Defaults()
	o.WarpSize = 2
	return o
}

// TestCacheHitSkipsReplay is the headline acceptance test: the second
// identical analysis must be served from the cache with zero replay
// invocations, and return a report identical to the computed one.
func TestCacheHitSkipsReplay(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	replays := countReplays(t)

	first, hit, err := AnalyzeCached(c, tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first analysis reported a cache hit")
	}
	if *replays != 1 {
		t.Fatalf("first analysis ran %d replays, want 1", *replays)
	}

	second, hit, err := AnalyzeCached(c, tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second identical analysis missed the cache")
	}
	if *replays != 1 {
		t.Fatalf("cache hit ran a replay (%d total, want 1)", *replays)
	}
	aj, bj := reportJSON(t, first), reportJSON(t, second)
	if aj != bj {
		t.Errorf("cached report differs from computed report:\n%s\nvs\n%s", aj, bj)
	}
}

// TestCacheKeyDependsOnContentNotPointer: re-decoding the same trace into a
// fresh value (new pointers throughout) must still hit.
func TestCacheKeyDependsOnContentNotPointer(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	if _, _, err := AnalyzeCached(c, tr, testOpts()); err != nil {
		t.Fatal(err)
	}
	clone := cacheTestTrace()
	_, hit, err := AnalyzeCached(c, clone, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("structurally identical trace missed the cache")
	}
}

// TestCacheKeyDistinguishesOptions: any semantic option change must miss.
func TestCacheKeyDistinguishesOptions(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	if _, _, err := AnalyzeCached(c, tr, testOpts()); err != nil {
		t.Fatal(err)
	}
	variants := []func(*Options){
		func(o *Options) { o.WarpSize = 4 },
		func(o *Options) { o.Formation = warp.Strided },
		func(o *Options) { o.EmulateLocks = true },
		func(o *Options) { o.EmulateLocks = true; o.LockReconvergence = simt.ReconvergeAtFunctionExit },
	}
	for i, mutate := range variants {
		o := testOpts()
		mutate(&o)
		_, hit, err := AnalyzeCached(c, tr, o)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if hit {
			t.Errorf("variant %d: option change hit the cache", i)
		}
	}
}

// TestCacheKeyIgnoresParallelism: serial and parallel replay are
// bit-identical (a tfcheck invariant), so Parallelism must not split keys.
func TestCacheKeyIgnoresParallelism(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	o := testOpts()
	o.Parallelism = 1
	if _, _, err := AnalyzeCached(c, tr, o); err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 4
	_, hit, err := AnalyzeCached(c, tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("changing only Parallelism missed the cache")
	}
}

// TestCacheListenerBypass: a listener must observe a real replay, so
// listener runs neither read nor populate the cache.
func TestCacheListenerBypass(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	if _, _, err := AnalyzeCached(c, tr, testOpts()); err != nil {
		t.Fatal(err)
	}
	replays := countReplays(t)
	o := testOpts()
	o.Listener = nopListener{}
	_, hit, err := AnalyzeCached(c, tr, o)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("listener run reported a cache hit")
	}
	if *replays != 1 {
		t.Errorf("listener run performed %d replays, want 1", *replays)
	}
}

// TestCacheCorruptionRecomputes: garbage entries, wrong schema tags, and
// truncated files are silent misses, never errors.
func TestCacheCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	tr := cacheTestTrace()
	want, _, err := AnalyzeCached(c, tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (err %v)", entries, err)
	}
	path := entries[0]
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, body := range map[string][]byte{
		"garbage":      []byte("not json at all \x00\xff"),
		"empty":        {},
		"truncated":    good[:len(good)/3],
		"wrong-schema": []byte(`{"schema":999,"report":{"Program":"evil"}}`),
		"null-report":  []byte(`{"schema":1,"report":null}`),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			got, hit, err := AnalyzeCached(c, tr, testOpts())
			if err != nil {
				t.Fatalf("corrupt cache entry surfaced an error: %v", err)
			}
			if hit {
				t.Fatal("corrupt cache entry reported a hit")
			}
			if reportJSON(t, got) != reportJSON(t, want) {
				t.Error("recomputed report differs from original")
			}
		})
	}
	// The last recompute must have healed the entry.
	if _, hit, err := AnalyzeCached(c, tr, testOpts()); err != nil || !hit {
		t.Errorf("entry not healed after recompute: hit=%v err=%v", hit, err)
	}
}

// TestCacheUnwritableDirDegrades: a cache rooted somewhere unusable still
// analyzes correctly — it just never hits.
func TestCacheUnwritableDirDegrades(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(filepath.Join(file, "sub")) // parent is a file: MkdirAll fails
	tr := cacheTestTrace()
	for i := 0; i < 2; i++ {
		_, hit, err := AnalyzeCached(c, tr, testOpts())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if hit {
			t.Fatalf("run %d: impossible hit from unwritable cache", i)
		}
	}
}

// TestSessionCacheHitSkipsPrepAndReplay: the Session path must consult the
// cache before doing any preparation work at all.
func TestSessionCacheHitSkipsPrepAndReplay(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	if _, _, err := AnalyzeCached(c, tr, testOpts()); err != nil {
		t.Fatal(err)
	}
	replays := countReplays(t)
	sess := NewSession()
	sess.SetCache(c)
	hitTrace := cacheTestTrace()
	r, err := sess.Analyze(hitTrace, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if *replays != 0 {
		t.Errorf("session cache hit performed %d replays, want 0", *replays)
	}
	// The hit must not even have prepared the trace: a memo probe with an
	// fn returning nil sees nil only if no preparation was memoized.
	if p, _ := sess.preps.Get(hitTrace, func() (*prep, error) { return nil, nil }); p != nil {
		t.Error("session cache hit prepared the trace")
	}
	want, err := Analyze(cacheTestTrace(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, r) != reportJSON(t, want) {
		t.Error("session cache hit returned a different report")
	}
}

// TestSessionCachePopulates: a session miss stores the entry, so a later
// plain AnalyzeCached hits.
func TestSessionCachePopulates(t *testing.T) {
	c := NewCache(t.TempDir())
	sess := NewSession()
	sess.SetCache(c)
	if _, err := sess.Analyze(cacheTestTrace(), testOpts()); err != nil {
		t.Fatal(err)
	}
	_, hit, err := AnalyzeCached(c, cacheTestTrace(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("session miss did not populate the cache")
	}
}

// TestOpenFlagCache covers the shared CLI flag convention.
func TestOpenFlagCache(t *testing.T) {
	if c := OpenFlagCache(false, ""); c != nil {
		t.Error("cache open despite both flags unset")
	}
	if c := OpenFlagCache(true, ""); c == nil || c.Dir() != DefaultCacheDir() {
		t.Errorf("OpenFlagCache(true, \"\") = %+v, want default dir", c)
	}
	if c := OpenFlagCache(false, "/tmp/x"); c == nil || c.Dir() != "/tmp/x" {
		t.Errorf("OpenFlagCache(false, /tmp/x) = %+v, want /tmp/x", c)
	}
	if c := OpenFlagCache(true, "/tmp/y"); c == nil || c.Dir() != "/tmp/y" {
		t.Errorf("explicit dir lost: %+v", c)
	}
}

// TestNilCachePassthrough: AnalyzeCached with a nil cache is plain Analyze.
func TestNilCachePassthrough(t *testing.T) {
	tr := cacheTestTrace()
	got, hit, err := AnalyzeCached(nil, tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("nil cache reported a hit")
	}
	want, err := Analyze(tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PerFunction, want.PerFunction) || got.Efficiency != want.Efficiency {
		t.Error("nil-cache AnalyzeCached differs from Analyze")
	}
}
