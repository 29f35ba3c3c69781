package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/opt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

// The values the CLIs' flags can put on each axis.
var (
	cliWarps      = []int{1, 8, 32, 64}
	cliFormations = []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry}
	cliSeverities = []analysis.Severity{analysis.SevInfo, analysis.SevWarning, analysis.SevError}
	cliPasses     = [][]string{nil, {"divergence"}, {"sanitize", "lockset", "divergence", "locks", "deadlock"}}
)

// TestQueryRoundTrip: every endpoint's decoder inverts its encoder over
// every value a CLI flag can produce.
func TestQueryRoundTrip(t *testing.T) {
	for _, ws := range cliWarps {
		for _, f := range cliFormations {
			for _, locks := range []bool{false, true} {
				o := core.Defaults()
				o.WarpSize, o.Formation, o.EmulateLocks = ws, f, locks
				got, err := decodeAnalyze(analyzeQuery(o))
				if err != nil || !reflect.DeepEqual(got, o) {
					t.Errorf("analyze %+v: decoded %+v, %v", o, got, err)
				}
			}
			for _, passes := range cliPasses {
				for _, sev := range cliSeverities {
					o := analysis.Options{WarpSize: ws, Formation: f, Passes: passes, MinSeverity: sev}
					got, err := decodeLint(lintQuery(o))
					if err != nil || !reflect.DeepEqual(got, o) {
						t.Errorf("lint %+v: decoded %+v, %v", o, got, err)
					}
				}
			}
		}
	}

	for _, name := range []string{"upload", "pigz.tft"} {
		for _, warps := range [][]int{nil, {1, 4, 32}, cliWarps} {
			for _, par := range [][]int{nil, {1, 4}, {2}} {
				for _, forms := range [][]warp.Formation{nil, {warp.RoundRobin}, cliFormations} {
					for _, props := range [][]string{nil, {"determinism", "recombine"}} {
						o := check.Options{WarpSizes: warps, Parallelism: par, Formations: forms, Props: props}
						gotName, got, err := decodeCheck(checkQuery(name, o))
						if err != nil || gotName != name || !reflect.DeepEqual(got, o) {
							t.Errorf("check %q %+v: decoded %q %+v, %v", name, o, gotName, got, err)
						}
					}
				}
			}
		}
	}

	for _, o := range analysis.Oracles() {
		for _, lvl := range opt.Levels {
			for _, threads := range []int{0, 16} {
				for _, seed := range []int64{1, 7} {
					for _, budget := range []int{0, 3} {
						r := StaticRequest{Workload: "vectoradd", Mode: o.Mode, Opt: lvl, Threads: threads, Seed: seed, Budget: budget}
						got, err := decodeStatic(r.query())
						if err != nil || got != r {
							t.Errorf("static %+v: decoded %+v, %v", r, got, err)
						}
					}
				}
			}
		}
	}
}

// TestQueryDefaults: a missing parameter decodes to the default README
// documents, and an encoder leaves out a zero value the local path reads
// as its default.
func TestQueryDefaults(t *testing.T) {
	if got, err := decodeAnalyze(nil); err != nil || got != core.Defaults() {
		t.Errorf("analyze defaults: %+v, %v", got, err)
	}
	if _, err := decodeAnalyze(analyzeQuery(core.Options{})); err == nil {
		t.Error("analyze with warp 0 decoded; core rejects it locally")
	}
	lintDefault := analysis.Options{WarpSize: 32}
	for _, q := range []url.Values{nil, lintQuery(analysis.Options{})} {
		if got, err := decodeLint(q); err != nil || !reflect.DeepEqual(got, lintDefault) {
			t.Errorf("lint %v: decoded %+v, %v; want %+v", q, got, err, lintDefault)
		}
	}
	if name, got, err := decodeCheck(nil); err != nil || name != "upload" || !reflect.DeepEqual(got, check.Options{}) {
		t.Errorf("check defaults: %q %+v, %v", name, got, err)
	}
	staticDefault := StaticRequest{Workload: "vectoradd", Mode: "simt", Opt: opt.O1, Seed: 1}
	for _, q := range []url.Values{{"workload": {"vectoradd"}}, StaticRequest{Workload: "vectoradd", Opt: opt.O1, Seed: 1}.query()} {
		if got, err := decodeStatic(q); err != nil || got != staticDefault {
			t.Errorf("static %v: decoded %+v, %v; want %+v", q, got, err, staticDefault)
		}
	}
}

// marshal is v's JSON encoding.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClientMatchesLocal: with non-default options, each typed client
// method returns the JSON the local path computes for the same options.
func TestClientMatchesLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2})
	c := Client{BaseURL: ts.URL}
	ctx := context.Background()
	w, err := workloads.ByName("seededrace")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Threads: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	tft := buf.Bytes()
	same := func(what string, local, remote any) {
		t.Helper()
		if l, r := marshal(t, local), marshal(t, remote); !bytes.Equal(l, r) {
			t.Errorf("%s: remote JSON differs from local:\n%s\nvs\n%s", what, r, l)
		}
	}

	aopts := core.Defaults()
	aopts.WarpSize, aopts.Formation, aopts.EmulateLocks = 8, warp.Strided, true
	local, err := core.Analyze(tr, aopts)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Analyze(ctx, bytes.NewReader(tft), aopts)
	if err != nil {
		t.Fatal(err)
	}
	same("analyze", local, remote)

	lopts := analysis.Options{WarpSize: 8, Formation: warp.GreedyEntry, Passes: []string{"divergence", "lockset"}, MinSeverity: analysis.SevWarning}
	localLint, err := analysis.Run(tr, lopts)
	if err != nil {
		t.Fatal(err)
	}
	remoteLint, err := c.Lint(ctx, bytes.NewReader(tft), lopts)
	if err != nil {
		t.Fatal(err)
	}
	same("lint", localLint, remoteLint)

	copts := check.Options{WarpSizes: []int{1, 8}, Parallelism: []int{1, 2}, Formations: []warp.Formation{warp.Strided, warp.GreedyEntry}, Props: []string{"determinism", "recombine", "width1"}}
	localCheck, err := check.Run("seededrace", tr, copts)
	if err != nil {
		t.Fatal(err)
	}
	remoteCheck, err := c.Check(ctx, bytes.NewReader(tft), "seededrace", copts)
	if err != nil {
		t.Fatal(err)
	}
	same("check", localCheck, remoteCheck)

	for _, o := range analysis.Oracles() {
		req := StaticRequest{Workload: "seededrace", Mode: o.Mode, Opt: opt.O3, Threads: 24, Seed: 3, Budget: 3}
		localStatic, err := analysis.RunStatic(inst.Prog, req.Opt, req.Mode, req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		remoteStatic, err := c.Static(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		same("static "+o.Mode, localStatic, &remoteStatic.StaticResult)
	}

	// A negative meld budget has one rule: rejected locally and remotely.
	if _, err := analysis.RunStatic(inst.Prog, opt.O1, "simt", -1); err == nil {
		t.Error("local static run accepted budget -1")
	}
	_, err = c.Static(ctx, StaticRequest{Workload: "seededrace", Mode: "simt", Opt: opt.O1, Seed: 1, Budget: -1})
	var re *RemoteError
	if !asRemote(err, &re) || re.Status != 400 || !strings.Contains(re.Message, "budget") {
		t.Errorf("remote static run with budget -1: %v, want 400 naming the budget", err)
	}
}
