package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/opt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// testTrace builds a small two-thread trace with a divergent branch and
// memory traffic — enough structure that reports are non-trivial.
func testTrace() *trace.Trace {
	t := &trace.Trace{
		Program: "servetest",
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

// tftBytes encodes the trace as an uploadable stream.
func tftBytes(t testing.TB, tr *trace.Trace, indexed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	version := 1
	if indexed {
		version = 3
	}
	if err := trace.Encode(&buf, tr, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer mounts a Server on an httptest listener. Cleanup drains
// the server first: abandoned flight goroutines must finish before other
// cleanups (notably replay-hook restores) mutate state they read.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("draining test server: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

// countReplays installs a replay counter for the test's duration.
func countReplays(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	restore := core.SetReplayTestHook(func() { n.Add(1) })
	t.Cleanup(restore)
	return &n
}

// gateReplays blocks every replay on the returned gate (and counts them).
// Closing the gate releases all current and future replays.
func gateReplays(t *testing.T) (release func(), count *atomic.Int64) {
	t.Helper()
	gate := make(chan struct{})
	var n atomic.Int64
	restore := core.SetReplayTestHook(func() {
		n.Add(1)
		<-gate
	})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	// LIFO: the gate must open before the hook is restored.
	t.Cleanup(restore)
	t.Cleanup(release)
	return release, &n
}

// waitFor polls cond until it holds or the suite's patience runs out.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

type clientResult struct {
	body []byte
	role string
	err  error
}

// TestAnalyzeDedupExactlyOnce is the headline concurrency property: N
// clients POST the same trace with the same options concurrently; the
// replay engine runs exactly once, every response is 200, and every body is
// byte-identical to the leader's. Lint uploads share flights the same way
// (the divergence pass does a single replay).
func TestAnalyzeDedupExactlyOnce(t *testing.T) {
	for _, ep := range []struct{ name, path string }{
		{"analyze", "/v1/analyze?warp=4"},
		{"lint", "/v1/lint?warp=4&passes=divergence"},
	} {
		t.Run(ep.name, func(t *testing.T) {
			release, replays := gateReplays(t)
			srv, ts := newTestServer(t, Config{
				MaxConcurrent: 4,
				QueueDepth:    64,
				TenantBudget:  64,
			})
			tft := tftBytes(t, testTrace(), true)

			const n = 16
			results := make([]clientResult, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := ts.Client().Post(ts.URL+ep.path, "application/octet-stream", bytes.NewReader(tft))
					if err != nil {
						results[i] = clientResult{err: err}
						return
					}
					defer resp.Body.Close()
					var buf bytes.Buffer
					if _, err := buf.ReadFrom(resp.Body); err != nil {
						results[i] = clientResult{err: err}
						return
					}
					if resp.StatusCode != 200 {
						t.Errorf("request %d: status %d body %s", i, resp.StatusCode, buf.String())
					}
					results[i] = clientResult{body: buf.Bytes(), role: resp.Header.Get("X-Tfserve-Dedup")}
				}(i)
			}

			// Hold the single replay open until every other request has
			// joined the flight as a follower — the strongest possible overlap.
			waitFor(t, func() bool { return srv.Snapshot().DedupFollowers == n-1 }, "all followers to join")
			release()
			wg.Wait()

			if got := replays.Load(); got != 1 {
				t.Fatalf("replay engine ran %d times for %d identical concurrent requests, want exactly 1", got, n)
			}
			var leaders, followers int
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("request %d failed: %v", i, r.err)
				}
				switch r.role {
				case "leader":
					leaders++
				case "follower":
					followers++
				default:
					t.Errorf("request %d: unexpected dedup role %q", i, r.role)
				}
				if !bytes.Equal(r.body, results[0].body) {
					t.Errorf("request %d body differs from request 0:\n%s\nvs\n%s", i, r.body, results[0].body)
				}
			}
			if leaders != 1 || followers != n-1 {
				t.Errorf("roles: %d leaders / %d followers, want 1 / %d", leaders, followers, n-1)
			}
			if q := srv.QueueInFlight(); q != 0 {
				t.Errorf("queue holds %d slots after all requests completed", q)
			}
		})
	}
}

// TestAnalyzeDistinctOptionsDoNotDedup: the same trace at different warp
// sizes is different work — both replays run.
func TestAnalyzeDistinctOptionsDoNotDedup(t *testing.T) {
	replays := countReplays(t)
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	tft := tftBytes(t, testTrace(), false)
	for _, q := range []string{"warp=4", "warp=8"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze?"+q, "application/octet-stream", bytes.NewReader(tft))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
	}
	if got := replays.Load(); got != 2 {
		t.Fatalf("%d replays for two distinct configurations, want 2", got)
	}
}

// TestServeCacheHit: with a report cache attached, a repeat of a completed
// request is served from disk (X-Tfserve-Cache: hit) without replaying,
// and the body matches the original byte for byte.
func TestServeCacheHit(t *testing.T) {
	replays := countReplays(t)
	cache := core.NewCache(t.TempDir())
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Cache: cache})
	tft := tftBytes(t, testTrace(), true)

	post := func() (int, string, []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze?warp=8", "application/octet-stream", bytes.NewReader(tft))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Tfserve-Cache"), buf.Bytes()
	}

	st1, c1, b1 := post()
	if st1 != 200 || c1 != "miss" {
		t.Fatalf("first request: status %d cache %q", st1, c1)
	}
	st2, c2, b2 := post()
	if st2 != 200 || c2 != "hit" {
		t.Fatalf("second request: status %d cache %q, want 200/hit", st2, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit body differs from computed body")
	}
	if got := replays.Load(); got != 1 {
		t.Fatalf("%d replays across a miss and a hit, want 1", got)
	}
}

// TestServeCacheCorruptionDegrades: truncating every cached entry on disk
// must not surface as a 5xx — the service re-replays and repairs.
func TestServeCacheCorruptionDegrades(t *testing.T) {
	replays := countReplays(t)
	dir := t.TempDir()
	cache := core.NewCache(dir)
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Cache: cache})
	tft := tftBytes(t, testTrace(), true)

	post := func() (int, string) {
		resp, err := ts.Client().Post(ts.URL+"/v1/analyze?warp=8", "application/octet-stream", bytes.NewReader(tft))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Tfserve-Cache")
	}
	if st, _ := post(); st != 200 {
		t.Fatalf("first request: status %d", st)
	}
	// Corrupt every stored entry the way a torn write would.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var truncated int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 7); err != nil {
				t.Fatal(err)
			}
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no cache entries written by first request")
	}
	st, c := post()
	if st != 200 {
		t.Fatalf("request over corrupt cache: status %d, want 200 (degrade to replay)", st)
	}
	if c != "miss" {
		t.Fatalf("request over corrupt cache reported %q, want miss", c)
	}
	if got := replays.Load(); got != 2 {
		t.Fatalf("%d replays, want 2 (original + degraded re-replay)", got)
	}
}

// TestLintAndCheckEndpoints: the other two trace-upload endpoints round-trip
// through the typed client.
func TestLintAndCheckEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	c := Client{BaseURL: ts.URL}
	tft := tftBytes(t, testTrace(), true)

	lint, err := c.Lint(context.Background(), bytes.NewReader(tft), analysis.Options{WarpSize: 4})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if lint.Program != "servetest" || lint.WarpSize != 4 {
		t.Fatalf("lint report: program %q warp %d", lint.Program, lint.WarpSize)
	}
	chk, err := c.Check(context.Background(), bytes.NewReader(tft), "servetest",
		check.Options{WarpSizes: []int{1, 4}, Parallelism: []int{1}})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if chk.Checks == 0 {
		t.Fatal("check ran zero property checks")
	}
	if !chk.OK() {
		t.Fatalf("check violations on a well-formed trace: %+v", chk.Violations)
	}
}

// TestStaticEndpoint: static oracles run over bundled workloads by name;
// unknown names are 404, a missing name is 400 listing the choices.
func TestStaticEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	c := Client{BaseURL: ts.URL}

	req := StaticRequest{Workload: "vectoradd", Mode: "simt", Opt: opt.O1, Seed: 1}
	rep, err := c.Static(context.Background(), req)
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	if rep.SIMT == nil || rep.Workload != "vectoradd" {
		t.Fatalf("static report: %+v", rep)
	}
	// A bare query gets the defaults README documents: mode simt, opt
	// O1, seed 1. A request with no mode selects simt through the client
	// too.
	resp, err := ts.Client().Get(ts.URL + "/v1/static?workload=vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	var bare StaticReport
	err = json.NewDecoder(resp.Body).Decode(&bare)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("bare static query: status %d, %v", resp.StatusCode, err)
	}
	if bare.SIMT == nil || bare.Opt != "O1" || bare.Workload != "vectoradd" {
		t.Fatalf("bare static query: mode %q opt %q workload %q, want simt O1 vectoradd", bare.Mode(), bare.Opt, bare.Workload)
	}
	noMode := req
	noMode.Mode = ""
	if rep, err := c.Static(context.Background(), noMode); err != nil || rep.SIMT == nil {
		t.Fatalf("static with no mode: %+v, %v; want the simt result", rep, err)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/static")
	if err != nil {
		t.Fatal(err)
	}
	var msg struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(msg.Error, "vectoradd") {
		t.Fatalf("empty static query: status %d %q, want 400 listing workloads", resp.StatusCode, msg.Error)
	}

	locksReq := req
	locksReq.Mode = "locks"
	locks, err := c.Static(context.Background(), locksReq)
	if err != nil {
		t.Fatalf("static locks: %v", err)
	}
	if locks.Locks == nil {
		t.Fatal("locks mode returned no lock result")
	}

	bad := req
	bad.Workload = "no-such-workload"
	_, err = c.Static(context.Background(), bad)
	var re *RemoteError
	if !asRemote(err, &re) || re.Status != 404 {
		t.Fatalf("unknown workload: %v, want 404", err)
	}
	bad.Workload = ""
	_, err = c.Static(context.Background(), bad)
	if !asRemote(err, &re) || re.Status != 400 || !strings.Contains(re.Message, "vectoradd") {
		t.Fatalf("missing workload param: %v, want 400 listing workloads", err)
	}
	// Modes come from the oracle registry: an unknown one is 400 naming
	// every registered mode.
	bad = req
	bad.Mode = "bogus"
	_, err = c.Static(context.Background(), bad)
	if !asRemote(err, &re) || re.Status != 400 {
		t.Fatalf("unknown mode: %v, want 400", err)
	}
	for _, o := range analysis.Oracles() {
		if !strings.Contains(re.Message, o.Mode) {
			t.Errorf("unknown-mode error %q does not list mode %q", re.Message, o.Mode)
		}
	}
}

func asRemote(err error, out **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*out = re
	}
	return ok
}
