// Package threadfuser is a SIMT analysis framework for MIMD programs: a Go
// reproduction of "ThreadFuser: A SIMT Analysis Framework for MIMD
// Programs" (MICRO 2024).
//
// ThreadFuser predicts how a multi-threaded CPU program would behave on
// SIMT hardware (a GPU, or a CPU-adjacent SIMT design) without porting it:
// it collects dynamic per-thread traces, reconstructs per-function dynamic
// control-flow graphs, computes immediate post-dominators, batches threads
// into warps, and replays the traces under SIMT-stack semantics. The result
// is the program's projected SIMT efficiency, a per-function breakdown that
// pinpoints divergence bottlenecks, a 32-byte-transaction memory-divergence
// profile, and — through the warp-trace generator and the bundled SIMT
// timing simulator — cycle-level speedup projections against a multicore
// CPU baseline.
//
// The facade in this package covers the common paths:
//
//	w, _ := threadfuser.Workload("other.pigz")
//	res, _ := threadfuser.AnalyzeWorkload(w, threadfuser.Options{WarpSize: 32})
//	fmt.Printf("SIMT efficiency: %.1f%%\n", res.Efficiency*100)
//
// Deeper control lives in the internal packages: internal/core (the
// analyzer), internal/vm (the tracer), internal/hwsim (the lockstep
// hardware oracle), internal/simtrace + internal/gpusim (warp traces and
// timing simulation), and internal/workloads (the 36 Table-I workloads).
package threadfuser

import (
	"fmt"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/cpusim"
	"threadfuser/internal/gpusim"
	"threadfuser/internal/simtrace"
	"threadfuser/internal/staticlock"
	"threadfuser/internal/staticmem"
	"threadfuser/internal/staticsimt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

// Options configure an analysis.
type Options struct {
	// WarpSize is the modelled SIMD width (default 32, the paper's).
	WarpSize int
	// Threads overrides the workload's default thread count.
	Threads int
	// Seed drives deterministic input generation.
	Seed int64
	// EmulateLocks serializes contended intra-warp critical sections
	// (figure 9); by default fine-grain locking is assumed.
	EmulateLocks bool
	// Formation selects the warp batching (default RoundRobin).
	Formation Formation
	// Parallelism bounds the replay worker pool: 0 uses one worker per
	// core, 1 forces serial replay. Parallel and serial replay produce
	// bit-identical reports.
	Parallelism int
	// Cache, if set, is consulted before analyzing and populated after: a
	// hit returns the stored report without replaying the trace. Use
	// OpenCache or WithCache. Parallelism does not affect cache keys
	// (serial and parallel replay are bit-identical).
	Cache *Cache
}

// Formation selects how threads are batched into warps.
type Formation = warp.Formation

// Warp formations: consecutive thread ids (the paper's default), threads
// dealt across warps like cards, or threads grouped by entry block.
const (
	RoundRobin  = warp.RoundRobin
	Strided     = warp.Strided
	GreedyEntry = warp.GreedyEntry
)

// Cache is a content-addressed on-disk report cache keyed by trace content
// and analysis options (see internal/core). Corrupt or stale entries degrade
// to recomputation, never errors.
type Cache = core.Cache

// OpenCache returns a report cache rooted at dir; an empty dir selects the
// per-user default (os.UserCacheDir()/threadfuser).
func OpenCache(dir string) *Cache {
	if dir == "" {
		dir = core.DefaultCacheDir()
	}
	return core.NewCache(dir)
}

// WithCache returns a copy of the options that routes analyses through c.
func (o Options) WithCache(c *Cache) Options {
	o.Cache = c
	return o
}

// session returns a new analysis session with the options' cache attached.
func (o Options) session() *core.Session {
	s := core.NewSession()
	s.SetCache(o.Cache)
	return s
}

func (o Options) coreOptions() core.Options {
	opts := core.Defaults()
	if o.WarpSize != 0 {
		opts.WarpSize = o.WarpSize
	}
	opts.EmulateLocks = o.EmulateLocks
	opts.Formation = o.Formation
	opts.Parallelism = o.Parallelism
	return opts
}

// Report is the analyzer's projection for one program (see
// internal/core.Report for the full field documentation).
type Report = core.Report

// FuncReport is one row of the per-function breakdown.
type FuncReport = core.FuncReport

// ExcludeFunctions returns a copy of the trace with every invocation of the
// named functions (and their callees) removed and accounted as skipped —
// the tracer's selective-exclusion capability from the paper's section III.
func ExcludeFunctions(tr *trace.Trace, names ...string) (*trace.Trace, error) {
	return trace.ExcludeFunctions(tr, names...)
}

// OnlyFunctions returns a copy of the trace restricted to the named
// functions and their callees.
func OnlyFunctions(tr *trace.Trace, names ...string) (*trace.Trace, error) {
	return trace.OnlyFunctions(tr, names...)
}

// Workload looks up one of the bundled Table-I workloads by name, e.g.
// "other.pigz", "paropoly.nbody" or "usuite.hdsearch.mid". Workloads lists
// them all.
func Workload(name string) (*workloads.Workload, error) {
	return workloads.ByName(name)
}

// Workloads returns the full bundled catalog in Table-I order.
func Workloads() []*workloads.Workload {
	return workloads.All()
}

// Trace runs the tracer over a workload and returns the MIMD trace, the
// input the analyzer (and the .tft file format) consume.
func Trace(w *workloads.Workload, o Options) (*trace.Trace, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	return inst.Trace()
}

// Analyze runs the ThreadFuser analyzer over a previously collected trace,
// consulting the configured report cache first if one is set.
func Analyze(tr *trace.Trace, o Options) (*Report, error) {
	return o.session().Analyze(tr, o.coreOptions())
}

// AnalyzeWorkload traces and analyzes a bundled workload in one step.
func AnalyzeWorkload(w *workloads.Workload, o Options) (*Report, error) {
	tr, err := Trace(w, o)
	if err != nil {
		return nil, err
	}
	return Analyze(tr, o)
}

// LintReport is the lint engine's output for one trace: structured findings
// sorted by severity, plus per-severity counts (see internal/analysis).
type LintReport = analysis.Report

// LintFinding is one diagnostic from the lint engine.
type LintFinding = analysis.Finding

// Severity ranks lint findings.
type Severity = analysis.Severity

// Lint finding severities, ascending.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

func (o Options) analysisOptions() analysis.Options {
	return analysis.Options{WarpSize: o.WarpSize, Formation: o.Formation, Parallelism: o.Parallelism}
}

// Lint runs the multi-pass analysis engine (trace sanitizer, lockset race
// detector, divergence lint and lock lint) over a previously collected
// trace. Problems with the trace become findings, not errors; the returned
// error covers only invalid options.
func Lint(tr *trace.Trace, o Options) (*LintReport, error) {
	return analysis.RunSession(o.session(), tr, o.analysisOptions())
}

// LintWorkload traces and lints a bundled workload in one step. Unlike Lint
// on a bare trace, the workload's IR is available, so the static
// oracle-vs-replay pass runs too.
func LintWorkload(w *workloads.Workload, o Options) (*LintReport, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	tr, err := inst.Trace()
	if err != nil {
		return nil, err
	}
	opts := o.analysisOptions()
	opts.Prog = inst.Prog
	return analysis.RunSession(o.session(), tr, opts)
}

// StaticReport is the static SIMT oracle's projection for one program:
// per-branch uniformity classifications with divergence causes, divergent
// reconvergence regions, and DARM-style melding opportunities (see
// internal/staticsimt).
type StaticReport = staticsimt.Result

// StaticWorkload runs the static SIMT oracle over a bundled workload's IR.
// No trace is collected — the oracle predicts divergence from the program
// text alone, soundly: a branch it classifies uniform never splits a warp
// in any replay (the "staticuniform" check invariant).
func StaticWorkload(w *workloads.Workload, o Options) (*StaticReport, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	return staticsimt.Analyze(inst.Prog, staticsimt.Options{}), nil
}

// StaticLockReport is the static concurrency oracle's projection for one
// program: must-hold locksets at every memory access, the static lock-order
// graph with deadlock-cycle candidates, race-candidate address classes, and
// acquires under divergent control (see internal/staticlock).
type StaticLockReport = staticlock.Result

// StaticLockWorkload runs the static concurrency oracle over a bundled
// workload's IR. No trace is collected — the oracle over-approximates the
// dynamic lockset and lock-order passes: every dynamic race and deadlock
// cycle lands in a static candidate (the "staticlockset" check invariant),
// and static-only candidates are the precision gap.
func StaticLockWorkload(w *workloads.Workload, o Options) (*StaticLockReport, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	return staticlock.Analyze(inst.Prog), nil
}

// StaticMemReport is the static memory oracle's projection for one program:
// every load/store site classified by per-lane tid-stride (broadcast,
// coalesced, strided, scattered) with its static transactions-per-warp bound
// and segment claim (see internal/staticmem).
type StaticMemReport = staticmem.Result

// StaticMemWorkload runs the static memory oracle over a bundled workload's
// IR. No trace is collected — the oracle over-approximates the replay's
// 32-byte-sector coalescing: no warp execution of a site ever exceeds its
// static transaction bound (the "staticcoalesce" check invariant), and
// scattered classifications the replay observes coalesced are the precision
// gap.
func StaticMemWorkload(w *workloads.Workload, o Options) (*StaticMemReport, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	return staticmem.Analyze(inst.Prog), nil
}

// CheckReport is the verification engine's outcome for one trace: the
// properties that ran, the number of assertions evaluated, and every failed
// invariant (see internal/check).
type CheckReport = check.Report

// CheckViolation is one failed analyzer invariant.
type CheckViolation = check.Violation

func (o Options) checkOptions() check.Options {
	opts := check.Options{Formations: []Formation{o.Formation}, Cache: o.Cache}
	if o.WarpSize != 0 {
		opts.WarpSizes = []int{o.WarpSize}
	}
	if o.Parallelism > 1 {
		opts.Parallelism = []int{1, o.Parallelism}
	}
	return opts
}

// Check runs the verification engine over a previously collected trace:
// every invariant of the catalog (replay determinism, width-1 efficiency,
// instruction conservation, lock monotonicity, coalescing bounds, codec
// round trips, equation-1 recombination, formation partitioning) across the
// configuration matrix. A zero Options checks the default matrix (warp
// widths 1/4/32 × serial and parallel replay); setting WarpSize or
// Parallelism narrows the matrix to those points. Failed invariants are
// violations in the report; the returned error covers only invalid options.
func Check(name string, tr *trace.Trace, o Options) (*CheckReport, error) {
	return check.Run(name, tr, o.checkOptions())
}

// CheckWorkload traces and verifies a bundled workload in one step. The
// workload's IR is attached, so the "staticuniform" invariant (static
// oracle soundness) is enforced in addition to the trace-only catalog.
func CheckWorkload(w *workloads.Workload, o Options) (*CheckReport, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	tr, err := inst.Trace()
	if err != nil {
		return nil, err
	}
	opts := o.checkOptions()
	opts.Prog = inst.Prog
	return check.Run(w.Name, tr, opts)
}

// Projection is a cycle-level speedup projection from the simulator path.
type Projection struct {
	// GPUCycles and CPUCycles are the simulated execution times on the
	// RTX-3070-like SIMT machine and the multicore CPU baseline.
	GPUCycles uint64
	CPUCycles uint64
	// Speedup is CPUCycles/GPUCycles.
	Speedup float64
	// GPUIPC is lane-instructions per cycle on the SIMT machine.
	GPUIPC float64
	// L1HitRate / L2HitRate come from the SIMT memory hierarchy.
	L1HitRate float64
	L2HitRate float64
}

// Project generates warp-based instruction traces for a workload, runs them
// through the SIMT timing simulator, runs the same MIMD trace through the
// CPU baseline, and returns the projected speedup (the figure-6 pipeline).
func Project(w *workloads.Workload, o Options) (*Projection, error) {
	inst, err := w.Instantiate(workloads.Config{Seed: o.Seed, Threads: o.Threads})
	if err != nil {
		return nil, err
	}
	tr, err := inst.Trace()
	if err != nil {
		return nil, err
	}
	warpSize := o.WarpSize
	if warpSize == 0 {
		warpSize = 32
	}
	kt, err := simtrace.Generate(inst.Prog, tr, warpSize)
	if err != nil {
		return nil, err
	}
	g, err := gpusim.Run(kt, gpusim.RTX3070())
	if err != nil {
		return nil, err
	}
	c, err := cpusim.Run(tr, cpusim.Xeon20())
	if err != nil {
		return nil, err
	}
	if g.Cycles == 0 {
		return nil, fmt.Errorf("threadfuser: degenerate simulation (0 cycles)")
	}
	return &Projection{
		GPUCycles: g.Cycles,
		CPUCycles: c.Cycles,
		Speedup:   float64(c.Cycles) / float64(g.Cycles),
		GPUIPC:    g.IPC,
		L1HitRate: g.L1HitRate,
		L2HitRate: g.L2HitRate,
	}, nil
}
