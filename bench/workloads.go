package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"threadfuser/internal/core"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

// kind selects how a workload's ops reach the analyzer.
type kind int

const (
	kindStream    kind = iota // tfanalyze -json on an indexed v3 file
	kindBatch                 // tfanalyze -json on an unindexed v1 file
	kindServeMiss             // tfserve upload into an empty report cache
	kindServeHit              // tfserve upload of an already-cached analysis
	kindSweep                 // tfanalyze -sweep: one ingest, 15 replays
)

// input is one traced program. Threads is the Table-I thread count.
type input struct {
	Name    string
	Threads int
	// Locks analyzes with EmulateLocks, as the figure-9 experiment does.
	Locks bool
}

type workload struct {
	name   string
	kind   kind
	inputs []input
}

// benchWorkloads are the benchmark's workloads, in the order they run.
var benchWorkloads = []*workload{
	{
		name: "analyze-v3-convergent",
		kind: kindStream,
		inputs: []input{
			{Name: "parsec.streamcluster", Threads: 8192},
			{Name: "paropoly.nbody", Threads: 4096},
			{Name: "dsb.uniqueid", Threads: 2048},
		},
	},
	{
		name: "analyze-v1-divergent",
		kind: kindBatch,
		inputs: []input{
			{Name: "usuite.mcrouter.memcached", Threads: 2048, Locks: true},
			{Name: "paropoly.cc", Threads: 4096},
			{Name: "dsb.post", Threads: 2048},
		},
	},
	{
		name:   "serve-upload-miss",
		kind:   kindServeMiss,
		inputs: microservices(),
	},
	{
		name:   "serve-upload-hit",
		kind:   kindServeHit,
		inputs: microservices(),
	},
	{
		name: "sweep-session",
		kind: kindSweep,
		inputs: []input{
			{Name: "paropoly.nbody", Threads: 4096},
			{Name: "dsb.post", Threads: 2048},
			{Name: "dsb.text", Threads: 2048},
		},
	},
}

// microservices is the figures 8-10 data-center set at Table-I scale,
// without usuite.hdsearch.mid: its trace size varies 2.4x with the seed, and
// at up to 23 MB it would dominate every upload metric.
func microservices() []input {
	var in []input
	for _, w := range workloads.Microservices() {
		if w.Name != "usuite.hdsearch.mid" {
			in = append(in, input{Name: w.Name, Threads: w.PaperThreads})
		}
	}
	return in
}

func workloadByName(name string) (*workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// encodings lists the .tft encodings a workload's ops read.
func (w *workload) encodings() []string {
	switch w.kind {
	case kindBatch:
		return []string{"v1"}
	case kindServeMiss, kindServeHit:
		return []string{"v1", "v3"}
	}
	return []string{"v3"}
}

// configs lists the analyzer configurations a workload's ops run on one
// input, in production defaults otherwise: fusion on, no UniformBranches,
// Parallelism 0.
func (w *workload) configs(in input) []core.Options {
	o := core.Defaults()
	o.EmulateLocks = in.Locks
	switch w.kind {
	case kindServeMiss, kindServeHit:
		// Two keys per trace: the paper's default width, and a narrow warp
		// with lock serialization on.
		narrow := core.Defaults()
		narrow.WarpSize = 8
		narrow.EmulateLocks = true
		return []core.Options{o, narrow}
	case kindSweep:
		var out []core.Options
		for _, ws := range []int{4, 8, 16, 32, 64} {
			for _, f := range []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry} {
				c := o
				c.WarpSize = ws
				c.Formation = f
				out = append(out, c)
			}
		}
		return out
	}
	return []core.Options{o}
}

func tracePath(dir string, in input, enc string) string {
	return filepath.Join(dir, fmt.Sprintf("%s@%d.%s.tft", in.Name, in.Threads, enc))
}

func refKey(in input, o core.Options) string {
	return fmt.Sprintf("%s@%d/warp=%d/%s/locks=%t", in.Name, in.Threads, o.WarpSize, o.Formation, o.EmulateLocks)
}

// reference is what every op's report must match for one (input, options):
// the SHA-256 of the serial in-memory analysis's canonical JSON, plus the
// totals a staged replay must reproduce.
type reference struct {
	Sum            string `json:"sum"`
	TotalInstrs    uint64 `json:"total_instrs"`
	LockstepInstrs uint64 `json:"lockstep_instrs"`
	HeapTx         uint64 `json:"heap_tx"`
	StackTx        uint64 `json:"stack_tx"`
	MemInstrs      uint64 `json:"mem_instrs"`
}

// refSet holds the references and each input's traced instruction count,
// the independent identity every report's TotalInstrs must equal.
type refSet struct {
	Refs   map[string]reference `json:"refs"`
	Instrs map[string]uint64    `json:"instrs"`
}

const refsFile = "refs.json"

// canonicalSum hashes a report's canonical JSON: every semantic field from
// Program through MemSites, in declaration order.
func canonicalSum(r *core.Report) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encoding report: %w", err)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:]), nil
}

// setupResult is one set-up pass: the inputs traced, encoded and written.
type setupResult struct {
	seconds      float64 // set-up wall, excluding the reference analyses
	traceSeconds float64 // the part spent in the tracer (vm.trace_s)
}

// prepare traces every input of w from seed, encodes and writes the files
// the ops read into dir and, when refs is set, builds the reference for
// every (input, options) with a serial core.Analyze of the tracer's
// in-memory trace (outside the timed set-up). small uses each workload's
// reduced DefaultThreads instead of Table-I scale.
func prepare(w *workload, seed int64, small bool, dir string, refs bool) (setupResult, error) {
	var res setupResult
	var excluded time.Duration
	rs := refSet{Refs: map[string]reference{}, Instrs: map[string]uint64{}}
	start := time.Now()
	for _, in := range w.inputs {
		t0 := time.Now()
		tr, err := traceInput(in, seed, small)
		if err != nil {
			return res, err
		}
		res.traceSeconds += time.Since(t0).Seconds()
		for _, enc := range w.encodings() {
			write := trace.WriteFile
			if enc == "v3" {
				write = trace.WriteFileIndexed
			}
			if err := write(tracePath(dir, in, enc), tr); err != nil {
				return res, fmt.Errorf("writing %s: %w", in.Name, err)
			}
		}
		if refs {
			t0 := time.Now()
			if err := addRefs(&rs, w, in, tr); err != nil {
				return res, err
			}
			excluded += time.Since(t0)
		}
	}
	res.seconds = (time.Since(start) - excluded).Seconds()
	if !refs {
		return res, nil
	}
	b, err := json.Marshal(rs)
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(dir, refsFile), b, 0o644)
}

// traceInput runs the tracer; small inputs use the workload's
// DefaultThreads.
func traceInput(in input, seed int64, small bool) (*trace.Trace, error) {
	wl, err := workloads.ByName(in.Name)
	if err != nil {
		return nil, err
	}
	threads := in.Threads
	if small {
		threads = wl.DefaultThreads
	}
	inst, err := wl.Instantiate(workloads.Config{Threads: threads, Seed: seed})
	if err != nil {
		return nil, err
	}
	tr, err := inst.Trace()
	if err != nil {
		return nil, fmt.Errorf("tracing %s: %w", in.Name, err)
	}
	return tr, nil
}

func addRefs(rs *refSet, w *workload, in input, tr *trace.Trace) error {
	rs.Instrs[inputKey(in)] = tr.TotalInstructions()
	for _, o := range w.configs(in) {
		o.Parallelism = 1
		rep, err := core.Analyze(tr, o)
		if err != nil {
			return fmt.Errorf("reference analysis of %s: %w", in.Name, err)
		}
		sum, err := canonicalSum(rep)
		if err != nil {
			return err
		}
		rs.Refs[refKey(in, o)] = reference{
			Sum:            sum,
			TotalInstrs:    rep.TotalInstrs,
			LockstepInstrs: rep.LockstepInstrs,
			HeapTx:         rep.HeapTx,
			StackTx:        rep.StackTx,
			MemInstrs:      rep.MemInstrs,
		}
	}
	return nil
}

func inputKey(in input) string { return fmt.Sprintf("%s@%d", in.Name, in.Threads) }

func loadRefs(dir string) (*refSet, error) {
	b, err := os.ReadFile(filepath.Join(dir, refsFile))
	if err != nil {
		return nil, err
	}
	var rs refSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	return &rs, nil
}

// check verifies one report against its reference and the two identities
// that need no reference: TotalInstrs equals the trace's instruction count,
// and the lane histogram accounts for every thread instruction. It returns
// the report's traced instruction count.
func (rs *refSet) check(in input, o core.Options, r *core.Report) (uint64, error) {
	key := refKey(in, o)
	ref, ok := rs.Refs[key]
	if !ok {
		return 0, fmt.Errorf("%s: no reference", key)
	}
	if want := rs.Instrs[inputKey(in)]; r.TotalInstrs != want {
		return 0, fmt.Errorf("%s: TotalInstrs %d, trace has %d", key, r.TotalInstrs, want)
	}
	var lanes uint64
	for k, n := range r.LaneHistogram {
		lanes += uint64(k) * n
	}
	if lanes != r.TotalInstrs {
		return 0, fmt.Errorf("%s: lane histogram covers %d instructions, report has %d", key, lanes, r.TotalInstrs)
	}
	sum, err := canonicalSum(r)
	if err != nil {
		return 0, err
	}
	if sum != ref.Sum {
		return 0, fmt.Errorf("%s: report differs from the serial in-memory reference", key)
	}
	return r.TotalInstrs, nil
}
