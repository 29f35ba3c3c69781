// Package core implements the ThreadFuser analyzer, the paper's primary
// contribution (section III, figure 3b): it parses a MIMD program trace,
// builds per-function dynamic control flow graphs, runs immediate
// post-dominator analysis, batches threads into warps, and replays the
// traces under SIMT-stack semantics to project what lockstep execution would
// do to the program — SIMT efficiency (equation 1), per-function efficiency,
// memory divergence after 32-byte coalescing, synchronization serialization,
// and the traced/skipped instruction split.
package core

import (
	"context"
	"fmt"
	"sort"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// Options configure an analysis. The zero value is not valid; use Defaults.
type Options struct {
	// WarpSize is the modelled SIMD width. The paper's default is 32.
	WarpSize int
	// Formation selects the thread-batching algorithm.
	Formation warp.Formation
	// EmulateLocks serializes contended intra-warp critical sections
	// (paper figure 9). The paper's headline efficiency numbers assume
	// fine-grain locking with no intra-warp serialization, so the default
	// leaves this off; the figure-9 experiment turns it on.
	EmulateLocks bool
	// LockReconvergence selects the serialized-section reconvergence
	// policy (the study the paper defers to future work). Default: the
	// paper's release-point policy.
	LockReconvergence simt.LockReconvergence
	// Listener, if set, observes lockstep block executions (used by the
	// warp-trace generator). A listener forces serial replay so callbacks
	// arrive in warp order.
	Listener simt.Listener
	// Parallelism bounds the replay worker pool. 0 means one worker per
	// core (runtime.GOMAXPROCS); 1 forces serial replay. Parallel and
	// serial replay produce bit-identical Reports.
	Parallelism int
	// Context, if non-nil, cancels an in-progress analysis: the replay loop
	// polls it and aborts with an error wrapping the context's error. The
	// analysis service uses this to thread request timeouts and client
	// disconnects down into replay. Like Parallelism, Context is excluded
	// from cache keys — it can stop an analysis, never change its result.
	Context context.Context

	// DisableLockstepFusion forces the per-block replay engine. It is the
	// A/B verification hook: the equivalence suite and tfcheck's "fusion"
	// invariant analyze every workload both ways and assert identical
	// Reports, which is also why the knob is excluded from cache keys.
	DisableLockstepFusion bool
}

// Defaults returns the paper's default configuration: warp size 32,
// round-robin batching, fine-grain-locking assumption (no intra-warp lock
// serialization).
func Defaults() Options {
	return Options{WarpSize: 32, Formation: warp.RoundRobin}
}

// BranchReport is one row of the per-branch divergence breakdown: the exact
// basic blocks whose terminators split warps, ranked by idled lanes. It
// extends the paper's per-function localization (figure 7) down to the
// branch granularity a fix is actually applied at.
type BranchReport struct {
	Func        string
	Block       uint32
	Divergences uint64
	// AvgPaths is the mean number of distinct successor groups per split.
	AvgPaths float64
	// LanesOff totals the lanes idled by this branch's splits.
	LanesOff uint64
	// RegionLockstep / RegionThreadInstrs total the warp instructions issued
	// while the warp was split by this branch and the thread instructions
	// those issues retired; LostSlots is their gap in issue slots
	// (RegionLockstep×WarpSize − RegionThreadInstrs), the quantity the
	// divergence lint ranks regions by.
	RegionLockstep     uint64
	RegionThreadInstrs uint64
	LostSlots          uint64
}

// MemSiteReport is one executed memory instruction's observed coalescing
// profile: which static site it is (both the function name, for display, and
// the raw ids the static memory oracle keys by) and the per-site histogram
// replay aggregated over every warp-level execution.
type MemSiteReport struct {
	Func   string
	FuncID uint32
	Block  uint32
	Instr  uint16
	// Execs counts warp-level executions that accessed memory here.
	Execs uint64
	// StackTx / HeapTx total the 32-byte transactions by segment;
	// MaxStackTx / MaxHeapTx / MaxTx record the worst single execution.
	StackTx    uint64
	HeapTx     uint64
	MaxStackTx uint64
	MaxHeapTx  uint64
	MaxTx      uint64
	// Hist buckets executions by total transactions:
	// 1, 2, 3, 4, 5-8, 9-16, 17-32, 33+.
	Hist [8]uint64
}

// FuncReport is one row of the per-function breakdown (paper figure 7).
type FuncReport struct {
	Name string
	// Efficiency is the function's own SIMT efficiency, excluding callees.
	Efficiency float64
	// InstrShare is the function's fraction of all executed thread
	// instructions (again excluding callees).
	InstrShare float64
	// ThreadInstrs / Lockstep are the raw equation-1 counts.
	ThreadInstrs uint64
	Lockstep     uint64
	// Invocations counts warp-level entries into the function.
	Invocations uint64
	// HeapTxPerInstr is the function's own memory divergence (figure 10
	// at function granularity).
	HeapTxPerInstr float64
	// LockSerializations / SerializedLanes attribute intra-warp
	// critical-section serialization (EmulateLocks runs only) to the
	// function whose block performed the contended acquire.
	LockSerializations uint64
	SerializedLanes    uint64
}

// Report is the analyzer's output for one trace at one configuration.
type Report struct {
	Program  string
	WarpSize int
	Threads  int
	Warps    int

	// Efficiency is the program SIMT efficiency: the mean of per-warp
	// equation-1 efficiencies.
	Efficiency float64
	// WeightedEfficiency weights warps by instruction count.
	WeightedEfficiency float64

	// TotalInstrs is the traced dynamic instruction count over all threads;
	// LockstepInstrs the warp instructions the SIMT machine would issue.
	TotalInstrs    uint64
	LockstepInstrs uint64

	// Memory divergence: average 32-byte transactions per warp-level
	// memory instruction, split by segment (paper figures 5b and 10).
	HeapTxPerInstr  float64
	StackTxPerInstr float64
	HeapTx          uint64
	StackTx         uint64
	MemInstrs       uint64

	// Synchronization.
	LockSerializations uint64
	SerializedLanes    uint64

	// Traced/skipped split (paper figure 8).
	SkippedIO     uint64
	SkippedSpin   uint64
	TracedPercent float64

	// PerFunction is sorted by descending instruction share.
	PerFunction []FuncReport

	// PerWarpEfficiency lists each warp's equation-1 efficiency.
	PerWarpEfficiency []float64

	// LaneHistogram[k] counts warp instructions issued with exactly k
	// active lanes (k ≤ WarpSize). The distribution separates "uniformly
	// half-full warps" from "full warps plus serialized tails", which
	// equation 1 alone cannot.
	LaneHistogram []uint64

	// Branches lists divergence sites sorted by idled lanes.
	Branches []BranchReport

	// MemSites lists every executed memory instruction's observed coalescing
	// profile, in program order (function id, block, instruction) — the
	// dynamic half of the static-vs-dynamic memory cross-check.
	MemSites []MemSiteReport

	// funcIndex maps function names to PerFunction rows for O(1) lookup.
	// It is rebuilt lazily when absent (e.g. after JSON decoding).
	funcIndex map[string]int
}

// prep holds the trace-derived analysis products that depend only on the
// trace itself (not on warp size, formation, or lock options): the
// per-function dynamic CFGs and their post-dominator trees. Both are
// read-only after construction and safe to share across goroutines; the
// caller's trace is never written, so concurrent analyses of one trace
// share nothing mutable.
type prep struct {
	graphs map[uint32]*cfg.DCFG
	pdoms  map[uint32]*ipdom.PostDom
}

// prepare is the analyzer's one ingest, shared by Session.Ingest and the
// batch path. Each pool work item validates one thread against t's symbol
// table and then, while the thread's records are still in cache, adds it
// to the claiming worker's own DCFG builder, so no thread is walked for
// its graph before it validates. pool.ForEach reports the first invalid
// thread in trace order. The workers' builders are then merged; the merge
// keeps each function's entry from the lowest-indexed thread that entered
// it and Finish sorts the edges, so the graphs are cfg.Build's at every
// parallelism.
func prepare(t *trace.Trace, parallelism int) (*prep, error) {
	n := len(t.Threads)
	workers := pool.Workers(parallelism, n)
	builders := make([]*cfg.Builder, workers)
	if _, err := pool.ForEach(workers, n, func(k, i int) error {
		th := t.Threads[i]
		if err := t.ValidateThread(th); err != nil {
			return err
		}
		if builders[k] == nil {
			builders[k] = cfg.NewBuilder(t.Funcs)
		}
		builders[k].Add(i, th)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: ingest: %w", err)
	}
	b := cfg.NewBuilder(t.Funcs)
	for _, wb := range builders {
		if wb != nil {
			b.Merge(wb)
		}
	}
	graphs := b.Finish()
	return &prep{graphs: graphs, pdoms: ipdom.ComputeAll(graphs)}, nil
}

// testHookReplay, when non-nil, is called every time a replay actually runs.
// Cache tests use it to prove a hit skips replay entirely.
var testHookReplay func()

// analyzeWith replays a prepared trace under one configuration.
func analyzeWith(t *trace.Trace, p *prep, warps []warp.Warp, opts Options) (*Report, error) {
	if testHookReplay != nil {
		testHookReplay()
	}
	res, err := simt.Replay(t, p.graphs, p.pdoms, warps, simt.Options{
		WarpSize:              opts.WarpSize,
		EmulateLocks:          opts.EmulateLocks,
		LockReconvergence:     opts.LockReconvergence,
		Listener:              opts.Listener,
		Parallelism:           opts.Parallelism,
		Context:               opts.Context,
		DisableLockstepFusion: opts.DisableLockstepFusion,
	})
	if err != nil {
		return nil, fmt.Errorf("core: replay: %w", err)
	}
	return buildReport(t, res, len(warps)), nil
}

// Analyze runs the full analyzer pipeline on a trace.
func Analyze(t *trace.Trace, opts Options) (*Report, error) {
	return NewSession().Analyze(t, opts)
}

// AnalyzeStream runs the full analyzer over an indexed trace, ingested
// through Session.Ingest. The returned report is identical to decoding the
// trace and calling Analyze.
func AnalyzeStream(r *trace.Reader, opts Options) (*Report, error) {
	s := NewSession()
	t, err := s.Ingest(r, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return s.Analyze(t, opts)
}

func buildReport(t *trace.Trace, res *simt.Result, nwarps int) *Report {
	total := res.Total()
	r := &Report{
		Program:            t.Program,
		WarpSize:           res.WarpSize,
		Threads:            len(t.Threads),
		Warps:              nwarps,
		Efficiency:         res.Efficiency(),
		WeightedEfficiency: res.WeightedEfficiency(),
		TotalInstrs:        total.ThreadInstrs,
		LockstepInstrs:     total.Lockstep,
		HeapTxPerInstr:     res.HeapTxPerMemInstr(),
		StackTxPerInstr:    res.StackTxPerMemInstr(),
		HeapTx:             total.HeapTx,
		StackTx:            total.StackTx,
		MemInstrs:          total.MemInstrs,
		LockSerializations: total.LockSerializations,
		SerializedLanes:    total.SerializedLanes,
		SkippedIO:          res.SkippedIO,
		SkippedSpin:        res.SkippedSpin,
		TracedPercent:      res.TracedFraction() * 100,
	}
	r.PerWarpEfficiency = make([]float64, len(res.Warps))
	for i := range res.Warps {
		r.PerWarpEfficiency[i] = res.Warps[i].Efficiency(res.WarpSize)
	}
	r.LaneHistogram = make([]uint64, res.WarpSize+1)
	copy(r.LaneHistogram, total.LaneHistogram[:res.WarpSize+1])
	r.PerFunction = make([]FuncReport, 0, len(res.Funcs))
	r.Branches = make([]BranchReport, 0, len(res.Branches))
	for fn, fm := range res.Funcs {
		fr := FuncReport{
			Name:           t.FuncName(fn),
			Efficiency:     fm.Efficiency(res.WarpSize),
			ThreadInstrs:   fm.ThreadInstrs,
			Lockstep:       fm.Lockstep,
			Invocations:    fm.Invocations,
			HeapTxPerInstr: fm.HeapTxPerMemInstr(),

			LockSerializations: fm.LockSerializations,
			SerializedLanes:    fm.SerializedLanes,
		}
		if total.ThreadInstrs > 0 {
			fr.InstrShare = float64(fm.ThreadInstrs) / float64(total.ThreadInstrs)
		}
		r.PerFunction = append(r.PerFunction, fr)
	}
	for key, bs := range res.Branches {
		br := BranchReport{
			Func:        t.FuncName(key.Func),
			Block:       key.Block,
			Divergences: bs.Divergences,
			LanesOff:    bs.LanesOff,

			RegionLockstep:     bs.RegionLockstep,
			RegionThreadInstrs: bs.RegionThreadInstrs,
			LostSlots:          bs.LostSlots(res.WarpSize),
		}
		if bs.Divergences > 0 {
			br.AvgPaths = float64(bs.Paths) / float64(bs.Divergences)
		}
		r.Branches = append(r.Branches, br)
	}
	r.MemSites = make([]MemSiteReport, 0, len(res.MemSites))
	for key, ms := range res.MemSites {
		r.MemSites = append(r.MemSites, MemSiteReport{
			Func:   t.FuncName(key.Func),
			FuncID: key.Func,
			Block:  key.Block,
			Instr:  key.Instr,
			Execs:  ms.Execs,

			StackTx:    ms.StackTx,
			HeapTx:     ms.HeapTx,
			MaxStackTx: ms.MaxStackTx,
			MaxHeapTx:  ms.MaxHeapTx,
			MaxTx:      ms.MaxTx,
			Hist:       ms.Hist,
		})
	}
	sort.Slice(r.MemSites, func(i, j int) bool {
		a, b := &r.MemSites[i], &r.MemSites[j]
		if a.FuncID != b.FuncID {
			return a.FuncID < b.FuncID
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Instr < b.Instr
	})
	sort.Slice(r.Branches, func(i, j int) bool {
		if r.Branches[i].LanesOff != r.Branches[j].LanesOff {
			return r.Branches[i].LanesOff > r.Branches[j].LanesOff
		}
		if r.Branches[i].Func != r.Branches[j].Func {
			return r.Branches[i].Func < r.Branches[j].Func
		}
		return r.Branches[i].Block < r.Branches[j].Block
	})
	sort.Slice(r.PerFunction, func(i, j int) bool {
		if r.PerFunction[i].InstrShare != r.PerFunction[j].InstrShare {
			return r.PerFunction[i].InstrShare > r.PerFunction[j].InstrShare
		}
		return r.PerFunction[i].Name < r.PerFunction[j].Name
	})
	r.funcIndex = buildFuncIndex(r.PerFunction)
	return r
}

func buildFuncIndex(rows []FuncReport) map[string]int {
	idx := make(map[string]int, len(rows))
	for i := range rows {
		if _, dup := idx[rows[i].Name]; !dup {
			idx[rows[i].Name] = i
		}
	}
	return idx
}

// Function returns the named function's report row, if present, in O(1) via
// a name index built when the report was constructed (and rebuilt on first
// use for reports that arrived without one, e.g. decoded from JSON).
func (r *Report) Function(name string) (FuncReport, bool) {
	if r.funcIndex == nil {
		r.funcIndex = buildFuncIndex(r.PerFunction)
	}
	if i, ok := r.funcIndex[name]; ok && i < len(r.PerFunction) {
		return r.PerFunction[i], true
	}
	return FuncReport{}, false
}
