package simt

import (
	"context"
	"fmt"
	"math/bits"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// MaxWarpSize bounds the warp width (lane masks are 64-bit words).
const MaxWarpSize = 64

// Options configure a replay.
type Options struct {
	// WarpSize is the SIMD width being modelled (paper explores 8..32).
	WarpSize int
	// EmulateLocks enables intra-warp critical-section serialization
	// (paper section III and figure 9). When disabled, lock operations
	// are traced but do not perturb control flow, modelling the paper's
	// fine-grain-locking assumption.
	EmulateLocks bool
	// LockReconvergence selects where serialized critical sections
	// reconverge. The paper picks the matching release of one contender
	// and explicitly defers studying alternatives ("different choices of
	// reconvergence points may have varying effects on the control flow
	// efficiency, but we defer this investigation to future research");
	// this knob implements that study.
	LockReconvergence LockReconvergence
	// Listener, if non-nil, observes every lockstep block execution; the
	// warp-trace generator uses it. A listener forces serial replay so
	// callbacks arrive in warp order.
	Listener Listener
	// Parallelism bounds the replay worker pool: warps are independent
	// units of work and fan out over this many workers. 0 means
	// runtime.GOMAXPROCS(0); 1 forces the serial path. The parallel path
	// produces bit-identical Results to the serial one: every metric is a
	// per-warp or commutative uint64 sum, merged deterministically.
	Parallelism int

	// Context, if non-nil, cancels an in-progress replay: the loop polls it
	// at every warp boundary and every few thousand SIMT-stack steps inside
	// a warp, so even a single enormous warp aborts promptly. The returned
	// error wraps the context's error (errors.Is-matchable against
	// context.Canceled / DeadlineExceeded). Like Parallelism and Listener,
	// Context is a control knob, not a semantic one: it can only stop a
	// replay, never change the metrics of one that completes.
	Context context.Context

	// DisableLockstepFusion turns off the lockstep-fusion fast path, forcing
	// the per-block engine. It exists as the A/B verification hook: the
	// equivalence suite and the check catalog's "fusion" invariant replay
	// every workload both ways and assert bit-identical Results.
	DisableLockstepFusion bool
}

// workers resolves the effective worker count for a warp count. Warps are
// the unit of parallel work, so the shared pool.Workers threshold decides
// when a replay is worth fanning out at all; a Listener forces one worker
// regardless (callbacks must arrive in warp order).
func (o Options) workers(nwarps int) int {
	if o.Listener != nil {
		return 1
	}
	return pool.Workers(o.Parallelism, nwarps)
}

// LockReconvergence enumerates critical-section reconvergence policies.
type LockReconvergence uint8

const (
	// ReconvergeAtRelease reconverges just past the matching release in
	// the first contender's trace — the paper's policy. Tight sections
	// resume lockstep as soon as possible.
	ReconvergeAtRelease LockReconvergence = iota
	// ReconvergeAtFunctionExit reconverges at the virtual exit of the
	// function containing the acquire — the conservative choice: the
	// whole remainder of the function serializes, but mismatched
	// lock/unlock paths can never strand a lane.
	ReconvergeAtFunctionExit
)

func (l LockReconvergence) String() string {
	if l == ReconvergeAtFunctionExit {
		return "function-exit"
	}
	return "release"
}

// BlockExec describes one lockstep execution of a basic block, delivered to
// a Listener.
type BlockExec struct {
	Warp        int
	Func, Block uint32
	Depth       int32
	// N is the block's instruction count.
	N uint64
	// Lanes lists the active lane indices; Threads the corresponding
	// global thread ids; Mem each active lane's memory accesses in this
	// block. The three slices are parallel and only valid for the duration
	// of the callback.
	Lanes   []int
	Threads []int
	Mem     [][]trace.MemAccess
	// NumLanes is the warp's configured width.
	NumLanes int
}

// Listener observes block executions during replay.
type Listener interface {
	OnBlock(*BlockExec)
}

// branchLayout maps every (func, block) pair of a trace's symbol table onto
// a dense index, so branch-divergence accounting is a slice index instead of
// a map lookup on the replay hot path.
type branchLayout struct {
	off   []int // per function id: offset into the flat block index space
	total int
}

func newBranchLayout(t *trace.Trace) *branchLayout {
	l := &branchLayout{off: make([]int, len(t.Funcs))}
	for i, f := range t.Funcs {
		l.off[i] = l.total
		l.total += len(f.Blocks)
	}
	return l
}

// index returns the flat slot for (fn, block), or -1 when the pair is
// outside the symbol table (possible only for traces that skip Validate).
func (l *branchLayout) index(fn, block uint32) int {
	if int(fn) >= len(l.off) {
		return -1
	}
	base := l.off[fn]
	end := l.total
	if int(fn)+1 < len(l.off) {
		end = l.off[fn+1]
	}
	if base+int(block) >= end {
		return -1
	}
	return base + int(block)
}

// accumulator collects the shared (non-per-warp) metrics of one replay
// worker: per-function totals, per-branch divergence stats, and skipped
// instruction counters. Workers accumulate locally — plain slice-indexed
// adds, no locks, no map lookups — and Replay merges the accumulators after
// all warps finish. Every field is a commutative sum, so the merged totals
// are identical no matter how warps were partitioned.
type accumulator struct {
	lay      *branchLayout
	funcs    []FuncMetrics
	touched  []bool
	branches []BranchStats
	// extra catches branch sites outside the symbol-table layout, which
	// only unvalidated traces can produce.
	extra map[BranchKey]*BranchStats
	// memSites holds this worker's per-site coalescing histograms; like all
	// other fields they are commutative sums/maxes, merged after all warps.
	memSites         map[MemSiteKey]*MemSiteStats
	skipIO, skipSpin uint64
	// siteCache is a tiny direct-mapped cache in front of the memSites map:
	// fused runs charge the same one or two memory instructions thousands of
	// times in a row, and the map hash would otherwise dominate the charge.
	siteCache [4]struct {
		key MemSiteKey
		ms  *MemSiteStats
	}
}

func newAccumulator(t *trace.Trace, lay *branchLayout) *accumulator {
	return &accumulator{
		lay:      lay,
		funcs:    make([]FuncMetrics, len(t.Funcs)),
		touched:  make([]bool, len(t.Funcs)),
		branches: make([]BranchStats, lay.total),
	}
}

// funcMetrics returns the accumulator slot for a function id, growing the
// table for ids beyond the symbol table (unvalidated traces).
func (a *accumulator) funcMetrics(fn uint32) *FuncMetrics {
	for int(fn) >= len(a.funcs) {
		a.funcs = append(a.funcs, FuncMetrics{})
		a.touched = append(a.touched, false)
	}
	a.touched[fn] = true
	return &a.funcs[fn]
}

// branchStats returns the accumulator slot for a divergence site.
func (a *accumulator) branchStats(fn, block uint32) *BranchStats {
	if i := a.lay.index(fn, block); i >= 0 {
		return &a.branches[i]
	}
	if a.extra == nil {
		a.extra = map[BranchKey]*BranchStats{}
	}
	key := BranchKey{Func: fn, Block: block}
	bs := a.extra[key]
	if bs == nil {
		bs = &BranchStats{}
		a.extra[key] = bs
	}
	return bs
}

// memSite returns the accumulator slot for one memory instruction.
func (a *accumulator) memSite(fn, block uint32, instr uint16) *MemSiteStats {
	key := MemSiteKey{Func: fn, Block: block, Instr: instr}
	slot := &a.siteCache[instr&3]
	if slot.ms != nil && slot.key == key {
		return slot.ms
	}
	if a.memSites == nil {
		a.memSites = map[MemSiteKey]*MemSiteStats{}
	}
	ms := a.memSites[key]
	if ms == nil {
		ms = &MemSiteStats{}
		a.memSites[key] = ms
	}
	slot.key, slot.ms = key, ms
	return ms
}

// mergeInto folds the accumulator into a Result. Only touched functions and
// branches with at least one divergence materialize map entries, matching
// the serial path's lazy map population exactly.
func (a *accumulator) mergeInto(res *Result) {
	res.SkippedIO += a.skipIO
	res.SkippedSpin += a.skipSpin
	for fn := range a.funcs {
		if !a.touched[fn] {
			continue
		}
		src := &a.funcs[fn]
		fm := res.Funcs[uint32(fn)]
		if fm == nil {
			fm = &FuncMetrics{}
			res.Funcs[uint32(fn)] = fm
		}
		fm.Lockstep += src.Lockstep
		fm.ThreadInstrs += src.ThreadInstrs
		fm.Invocations += src.Invocations
		fm.MemInstrs += src.MemInstrs
		fm.HeapTx += src.HeapTx
		fm.StackTx += src.StackTx
		fm.LockSerializations += src.LockSerializations
		fm.SerializedLanes += src.SerializedLanes
	}
	fn := 0
	for i := range a.branches {
		src := &a.branches[i]
		if src.Divergences == 0 {
			continue
		}
		for fn+1 < len(a.lay.off) && a.lay.off[fn+1] <= i {
			fn++
		}
		key := BranchKey{Func: uint32(fn), Block: uint32(i - a.lay.off[fn])}
		mergeBranch(res, key, src)
	}
	for key, src := range a.extra {
		if src.Divergences != 0 {
			mergeBranch(res, key, src)
		}
	}
	for key, src := range a.memSites {
		dst := res.MemSites[key]
		if dst == nil {
			dst = &MemSiteStats{}
			res.MemSites[key] = dst
		}
		dst.merge(src)
	}
}

func mergeBranch(res *Result, key BranchKey, src *BranchStats) {
	bs := res.Branches[key]
	if bs == nil {
		bs = &BranchStats{}
		res.Branches[key] = bs
	}
	bs.Divergences += src.Divergences
	bs.Paths += src.Paths
	bs.LanesOff += src.LanesOff
	bs.RegionLockstep += src.RegionLockstep
	bs.RegionThreadInstrs += src.RegionThreadInstrs
}

// Replay runs the SIMT-stack emulation over all warps and returns the
// aggregated metrics. Warps are independent: with Options.Parallelism != 1
// (and no Listener) they fan out over a worker pool, each worker replaying
// its share with worker-local accumulators that are merged afterwards. The
// result is bit-identical to the serial path regardless of worker count.
func Replay(t *trace.Trace, graphs map[uint32]*cfg.DCFG, pdoms map[uint32]*ipdom.PostDom, warps []warp.Warp, opts Options) (*Result, error) {
	if opts.WarpSize <= 0 || opts.WarpSize > MaxWarpSize {
		return nil, fmt.Errorf("simt: warp size %d out of range [1,%d]", opts.WarpSize, MaxWarpSize)
	}
	// Validate warp shapes up front so malformed inputs produce the same
	// deterministic error no matter how the warps would be partitioned.
	for wi, w := range warps {
		if len(w) > opts.WarpSize {
			return nil, fmt.Errorf("simt: warp %d has %d threads > warp size %d", wi, len(w), opts.WarpSize)
		}
		for _, tid := range w {
			if tid < 0 || tid >= len(t.Threads) {
				return nil, fmt.Errorf("simt: warp %d references thread %d outside trace", wi, tid)
			}
		}
	}
	res := &Result{
		WarpSize: opts.WarpSize,
		Warps:    make([]WarpMetrics, len(warps)),
		Funcs:    make(map[uint32]*FuncMetrics),
		Branches: make(map[BranchKey]*BranchStats),
		MemSites: make(map[MemSiteKey]*MemSiteStats),
	}
	lay := newBranchLayout(t)
	nw := opts.workers(len(warps))

	// Replay internals panic on structurally impossible record streams (a
	// block cursor landing on a return, a reconvergence stack underflow).
	// Traces that reach this point passed trace.Validate, but that check is
	// per-record, not whole-stream, so a corrupted or hand-edited .tft file
	// can still trip them. Surface those as errors — with parallel replay a
	// worker panic would otherwise kill the whole process.
	safeReplay := func(wr *warpReplay, wi int, w warp.Warp, m *WarpMetrics) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("simt: replaying warp %d: %v", wi, r)
			}
		}()
		return wr.replayWarp(t, wi, w, m)
	}

	// Warps are claimed dynamically (work stealing): a worker that finishes
	// a short warp takes the next unclaimed one instead of idling behind a
	// statically dealt long one, so skewed warp sizes cannot flatten the
	// parallel speedup. The claim order cannot leak into the result: each
	// warp writes an exclusive Result slot, and every accumulator field is a
	// commutative sum merged afterwards. pool.ForEach returns the failure of
	// the lowest-numbered failing warp, the one a serial loop meets first;
	// at one worker it is a plain loop in warp order.
	accs := make([]*accumulator, nw)
	wrs := make([]*warpReplay, nw)
	for k := 0; k < nw; k++ {
		accs[k] = newAccumulator(t, lay)
		wrs[k] = newWarpReplay(graphs, pdoms, opts, accs[k])
	}
	if _, err := pool.ForEach(nw, len(warps), func(k, wi int) error {
		if err := cancelErr(opts.Context); err != nil {
			return err
		}
		return safeReplay(wrs[k], wi, warps[wi], &res.Warps[wi])
	}); err != nil {
		return nil, err
	}
	for _, acc := range accs {
		acc.mergeInto(res)
	}
	return res, nil
}

// entry is one SIMT-stack entry.
type entry struct {
	mask    uint64
	rpc     position // reconvergence position
	hasRPC  bool
	last    position // most recently executed position (for IPDOM lookup)
	hasLast bool
	// brFn/brBlock name the branch whose divergence pushed this entry, so
	// block executions inside the divergent region can be attributed to it
	// (BranchStats.RegionLockstep / RegionThreadInstrs). Entries pushed by
	// critical-section serialization carry no branch tag.
	brFn      uint32
	brBlock   uint32
	hasBranch bool
	// mustExec forces at least one block execution before the reconvergence
	// check. Serialization rounds whose critical section begins and ends in
	// one self-looping block get an rpc equal to their current position;
	// without this they would pop with zero progress and re-serialize
	// forever.
	mustExec bool
}

// group is a set of lanes sharing the same next position.
type group struct {
	pos  position
	mask uint64
}

// warpReplay replays warps one at a time for a single worker, reusing its
// stack, cursor, group and lane buffers across warps so the steady-state
// inner loop allocates nothing.
type warpReplay struct {
	warpIndex int
	wm        *WarpMetrics
	acc       *accumulator
	graphs    map[uint32]*cfg.DCFG
	pdoms     map[uint32]*ipdom.PostDom
	opts      Options
	tids      []int
	cursors   []cursor
	done      uint64
	stack     []entry

	groupBuf  []group
	laneBuf   []int
	memBuf    [][]trace.MemAccess
	offBuf    []int // lanes' running Mem offsets in a fused window
	threadBuf []int
	// Lane-indexed control-word tables of the warp's threads (their
	// ThreadTrace.Ctl), set once per warp (replayWarp); fused windows index
	// them as warpCtl[lane][cursorIdx+k], so per-window setup writes only the
	// plain-integer idxBuf — no pointer-bearing slice headers, no write
	// barriers on the hot path.
	warpCtl [][]uint64
	idxBuf  []int32
	mem     MemCharger
	exec    BlockExec
	// fuse enables the lockstep-fusion fast path; resolved once per worker
	// (off when a Listener needs per-block callbacks or the A/B hooks say so).
	fuse bool
	// curFn/curBlock name the block execBlock is currently charging, so the
	// MemCharger.Site sink can attribute per-instruction outcomes without a
	// per-block closure.
	curFn, curBlock uint32
}

func newWarpReplay(graphs map[uint32]*cfg.DCFG, pdoms map[uint32]*ipdom.PostDom, opts Options, acc *accumulator) *warpReplay {
	wr := &warpReplay{
		graphs: graphs,
		pdoms:  pdoms,
		opts:   opts,
		acc:    acc,
		stack:  make([]entry, 0, 16),
	}
	// One bound-method value per worker; the per-block hot path only writes
	// curFn/curBlock.
	wr.mem.Site = wr.noteSite
	wr.fuse = !opts.DisableLockstepFusion && opts.Listener == nil
	return wr
}

// noteSite is the MemCharger.Site sink: it attributes one per-instruction
// coalescing outcome to the block execBlock is charging.
func (wr *warpReplay) noteSite(instr uint16, stackTx, heapTx int) {
	wr.acc.memSite(wr.curFn, wr.curBlock, instr).note(stackTx, heapTx)
}

// replayWarp runs one warp to completion, writing its per-warp metrics into
// wm (an exclusive slot of the shared Result) and its shared metrics into
// the worker's accumulator.
func (wr *warpReplay) replayWarp(t *trace.Trace, wi int, w warp.Warp, wm *WarpMetrics) error {
	wr.warpIndex = wi
	wr.wm = wm
	wr.tids = w
	if cap(wr.cursors) < len(w) {
		wr.cursors = make([]cursor, len(w))
	} else {
		wr.cursors = wr.cursors[:len(w)]
	}
	for i, tid := range w {
		wr.cursors[i].reset(t.Threads[tid])
	}
	if wr.fuse {
		wctl := wr.warpCtl[:0]
		for _, tid := range w {
			wctl = append(wctl, t.Threads[tid].Ctl)
		}
		wr.warpCtl = wctl
	}
	wr.done = 0
	wr.stack = wr.stack[:0]
	if err := wr.run(); err != nil {
		return fmt.Errorf("simt: warp %d: %w", wi, err)
	}
	for i := range wr.cursors {
		wr.acc.skipIO += wr.cursors[i].skipIO
		wr.acc.skipSpin += wr.cursors[i].skipSpin
	}
	return nil
}

func (wr *warpReplay) run() error {
	all := uint64(0)
	for i := range wr.cursors {
		all |= 1 << uint(i)
	}
	wr.stack = append(wr.stack, entry{mask: all})

	var maxSteps uint64 = 1024
	for i := range wr.cursors {
		maxSteps += uint64(len(wr.cursors[i].recs)) * 8
	}

	for steps := uint64(0); len(wr.stack) > 0; steps++ {
		// Poll cancellation every 4096 steps: cheap enough to vanish in the
		// loop (one masked branch), frequent enough that a request abort or
		// deadline stops even a single warp with millions of records.
		if steps&4095 == 0 {
			if err := cancelErr(wr.opts.Context); err != nil {
				return err
			}
		}
		if steps > maxSteps {
			var desc string
			for i := range wr.stack {
				e := &wr.stack[i]
				desc += fmt.Sprintf("\n  entry %d: mask=%x rpc=%v(hasRPC=%v) last=%v", i, e.mask, e.rpc, e.hasRPC, e.last)
			}
			top := &wr.stack[len(wr.stack)-1]
			for _, g := range wr.group(top.mask &^ wr.done) {
				desc += fmt.Sprintf("\n  top group: pos=%v mask=%x", g.pos, g.mask)
			}
			return fmt.Errorf("replay exceeded %d steps: SIMT stack livelock (stack depth %d)%s", maxSteps, len(wr.stack), desc)
		}
		e := &wr.stack[len(wr.stack)-1]
		active := e.mask &^ wr.done
		groups := wr.group(active)

		if len(groups) == 0 {
			wr.pop()
			continue
		}
		if e.hasRPC && (!e.mustExec || e.hasLast) && allAtOrPast(e, groups) {
			wr.pop()
			continue
		}
		if len(groups) == 1 {
			g := groups[0]
			// Converged warps spend most of their time in runs of agreeing
			// block records (loops): the fused path executes the whole run as
			// verified windows with scaled accounting, subsuming the stepped
			// execGroup entirely. It consumes nothing when the next element
			// is not provably fusible — a skip/call prefix before the block
			// record, a lock operation, the entry's reconvergence position —
			// and the stepped execGroup then takes exactly one step.
			if g.pos.kind == posBlock && wr.fuse {
				n, err := wr.execRunFused(e, g.pos, g.mask)
				if err != nil {
					return err
				}
				if n > 0 {
					continue
				}
			}
			if err := wr.execGroup(e, g.pos, g.mask); err != nil {
				return err
			}
			continue
		}
		wr.diverge(e, groups)
	}
	for i := range wr.cursors {
		wr.cursors[i].drainTrailingSkips()
	}
	return nil
}

func (wr *warpReplay) pop() {
	wr.stack = wr.stack[:len(wr.stack)-1]
}

// cancelErr translates a done context into a replay error; a nil context
// never cancels.
func cancelErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("simt: replay canceled: %w", err)
	}
	return nil
}

// allAtOrPast reports whether every group has reached the entry's
// reconvergence position. A group counts as "past" it only when the entry
// has already executed at or inside the reconvergence frame and the group
// has since returned below it — the escape hatch for the approximate
// critical-section reconvergence points. Lanes that have merely not yet
// descended to the reconvergence depth must keep executing, or serialized
// entries would pop before doing any work and re-serialize forever.
func allAtOrPast(e *entry, groups []group) bool {
	escaped := e.hasLast && e.last.depth >= e.rpc.depth
	for _, g := range groups {
		if g.pos == e.rpc {
			continue
		}
		if escaped && g.pos.depth < e.rpc.depth {
			continue
		}
		return false
	}
	return true
}

// group partitions the active lanes by their next position, dropping lanes
// whose traces are exhausted (and recording them as done). Groups are sorted
// by position key for determinism. The returned slice aliases the replay's
// reusable buffer and is only valid until the next call.
func (wr *warpReplay) group(active uint64) []group {
	groups := wr.groupBuf[:0]
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		pos := wr.cursors[lane].peek()
		if pos.kind == posDone {
			wr.cursors[lane].drainTrailingSkips()
			wr.done |= 1 << uint(lane)
			continue
		}
		found := false
		for i := range groups {
			if groups[i].pos == pos {
				groups[i].mask |= 1 << uint(lane)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{pos: pos, mask: 1 << uint(lane)})
		}
	}
	// Insertion sort by position key: group counts are tiny (bounded by the
	// warp width) and this avoids sort.Slice allocations in the inner loop.
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j].pos.key() < groups[j-1].pos.key(); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
	wr.groupBuf = groups
	return groups
}

// diverge handles multiple distinct next positions within one entry: the
// divergent branch's IPDOM becomes the reconvergence point and one stack
// entry per distinct target is pushed (paper figure 2).
func (wr *warpReplay) diverge(e *entry, groups []group) {
	rpc := wr.reconvergencePoint(e, groups)
	wr.recordDivergence(e, groups)
	tagged := e.hasLast && e.last.kind == posBlock
	brFn, brBlock := e.last.fn, e.last.block
	// Lanes already at the reconvergence point wait in the parent entry.
	for i := len(groups) - 1; i >= 0; i-- { // reverse so the lowest key ends on top
		g := groups[i]
		if g.pos == rpc {
			continue
		}
		ne := entry{mask: g.mask, rpc: rpc, hasRPC: true}
		if tagged {
			ne.brFn, ne.brBlock, ne.hasBranch = brFn, brBlock, true
		}
		wr.stack = append(wr.stack, ne)
	}
	// At least one group differs from rpc (groups have pairwise-distinct
	// positions and at most one can equal it), so progress is guaranteed.
}

// recordDivergence attributes a warp split to the block whose terminator
// caused it (the entry's most recently executed block).
func (wr *warpReplay) recordDivergence(e *entry, groups []group) {
	if !e.hasLast || e.last.kind != posBlock {
		return
	}
	bs := wr.acc.branchStats(e.last.fn, e.last.block)
	bs.Divergences++
	bs.Paths += uint64(len(groups))
	var total, largest int
	for _, g := range groups {
		n := bits.OnesCount64(g.mask)
		total += n
		if n > largest {
			largest = n
		}
	}
	bs.LanesOff += uint64(total - largest)
}

// reconvergencePoint picks the RPC for a divergence. The normal case uses
// the IPDOM of the block the entry just executed. If any group already sits
// at the entry's own reconvergence position (loop-exit divergence), that
// position is reused. Pathological mixes (differing depths after approximate
// critical-section reconvergence) fall back to the virtual exit of the
// shallowest group's function.
func (wr *warpReplay) reconvergencePoint(e *entry, groups []group) position {
	if e.hasRPC {
		for _, g := range groups {
			if g.pos == e.rpc {
				return e.rpc
			}
		}
	}
	minDepth := groups[0].pos.depth
	for _, g := range groups[1:] {
		if g.pos.depth < minDepth {
			minDepth = g.pos.depth
		}
	}
	// Whenever every group sits at or below (deeper than) the frame of the
	// block that just executed, its IPDOM is the reconvergence point. This
	// covers ordinary branch divergence (groups at the same depth) and
	// divergent indirect calls (every lane entered a different callee, one
	// frame deeper): the lanes rejoin at the caller's join block after
	// their callees return.
	if e.hasLast && e.last.kind == posBlock && minDepth >= e.last.depth {
		return wr.ipdomPos(e.last.fn, e.last.block, e.last.depth)
	}
	// Fallback for depth mixes left behind by approximate critical-section
	// reconvergence: the virtual exit of the shallowest group's function.
	min := groups[0]
	for _, g := range groups[1:] {
		if g.pos.depth < min.pos.depth {
			min = g
		}
	}
	return position{kind: posExit, fn: min.pos.fn, depth: min.pos.depth}
}

// ipdomPos maps a block's immediate post-dominator to a replay position.
func (wr *warpReplay) ipdomPos(fn, block uint32, depth int32) position {
	g := wr.graphs[fn]
	pd := wr.pdoms[fn]
	if g == nil || pd == nil {
		return position{kind: posExit, fn: fn, depth: depth}
	}
	ip := pd.IPDom(int32(block))
	if ip == g.ExitNode() {
		return position{kind: posExit, fn: fn, depth: depth}
	}
	return position{kind: posBlock, fn: fn, block: uint32(ip), depth: depth}
}

// execGroup executes one lockstep step (a basic block or a function exit)
// for the given lanes.
func (wr *warpReplay) execGroup(e *entry, pos position, mask uint64) error {
	switch pos.kind {
	case posExit:
		for m := mask; m != 0; m &= m - 1 {
			wr.cursors[bits.TrailingZeros64(m)].consumeExit()
		}
		e.last, e.hasLast = pos, true
		return nil
	case posBlock:
		if wr.opts.EmulateLocks && wr.maybeSerialize(e, pos, mask) {
			return nil
		}
		return wr.execBlock(e, pos, mask)
	}
	return fmt.Errorf("execGroup on %v", pos)
}

// maxWindow bounds how many records one execRunFused call consumes, keeping
// the cancellation poll (every 4096 main-loop steps) reasonably prompt even
// for million-record converged phases; the main loop re-enters the fused
// path immediately, so the cap costs one group formation per maxWindow
// records.
const maxWindow = 8192

// execRunFused executes the tail of a converged run as a fused window off
// the lanes' control words (ThreadTrace.Ctl), in three passes. Pass 1 scans
// lane 0's control words for the longest window proposal the stepped loop would
// provably run as single full-mask groups: KindBBL words at constant call
// depth, no lock operations when locks are emulated, never the entry's
// reconvergence position, and no function boundary. Pass 2 trims the
// proposal to the lanes' actual agreement: each other lane's control words
// are compared to lane 0's as two contiguous arrays — one 8-byte compare per
// element covering kind, function, block, size, lock presence, and
// access-list length at once — shrinking the window to the first
// disagreement. Pass 3 charges the surviving elements, re-reading lane 0's
// (now cache-hot) words: run-length-scaled instruction accounting (flushed
// when the (func, block, size) run breaks) and, for elements that touch
// memory, the lanes' access lists gathered once and charged by chargeUniform's
// closed form, or by Charge when the closed form does not apply. The lists
// are read at running offsets into the lanes' Mem tables: one record load
// per lane at the window's first memory element, then the shared length in
// the control word's mem field, so only a saturated field reads a record
// again. The stepped loop resumes at the first rejected element.
//
// Exactness rests on verification, not on the proposal: an element executes
// fused only after every active lane's control word was checked to be the same
// lock-free block execution, which is precisely the condition under which
// one more stepped iteration would re-form this single group and execute it.
// No pop can fire mid-window either: the entry's reconvergence position is
// never fused, and any other pop condition needs the position's call depth
// to be both at or past and short of the reconvergence depth at once, which
// cannot happen while the window stays at constant depth.
//
// Proposals extend through every same-function block boundary; per-lane
// verification alone trims them. Control words marked CtlInvalid (packed
// field overflow) break the window like any disagreement, handing the
// element to the stepped engine, which reads full records.
func (wr *warpReplay) execRunFused(e *entry, pos position, mask uint64) (int, error) {
	// At the entry's reconvergence position the stepped loop either pops or
	// — under a mustExec entry that has not yet executed — must take a
	// stepped step with its serialization checks; never fuse it.
	if e.hasRPC && e.rpc == pos {
		return 0, nil
	}
	lanes := wr.laneBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		lanes = append(lanes, bits.TrailingZeros64(m))
	}
	wr.laneBuf = lanes
	active := len(lanes)
	idxs := wr.idxBuf[:0]
	maxK := maxWindow
	for _, l := range lanes {
		c := &wr.cursors[l]
		idxs = append(idxs, int32(c.idx))
		if rem := len(c.recs) - c.idx; rem < maxK {
			maxK = rem
		}
	}
	wr.idxBuf = idxs
	ctls := wr.warpCtl
	ctl0 := ctls[lanes[0]][idxs[0]:]
	// KindBBL packs to zero kind bits, so one mask test rejects every
	// non-block kind, invalid words, and (when emulating) lock carriers.
	reject := trace.CtlInvalid | trace.CtlKindMask
	if wr.opts.EmulateLocks {
		reject |= trace.CtlLocksBit
	}
	depth := pos.depth
	fnKey := trace.PackFnBlock(pos.fn, pos.block) & trace.CtlFuncMask
	// rpcKey is the entry's reconvergence position as a masked (fn, block)
	// key when it could appear inside this window, else a value no valid
	// word's key can equal.
	rpcKey := ^uint64(0)
	if e.hasRPC && e.rpc.kind == posBlock && e.rpc.depth == depth {
		rpcKey = trace.PackFnBlock(e.rpc.fn, e.rpc.block)
	}

	// Pass 1: lane 0's proposal.
	n := 0
	for ; n < maxK; n++ {
		c0 := ctl0[n]
		if c0&reject != 0 {
			break
		}
		key := c0 & trace.CtlFnBlockMask
		// Interprocedural boundaries always end a window (well-formed traces
		// mark them with call/return records anyway); block boundaries pass,
		// and pass 2 trims them.
		if key&trace.CtlFuncMask != fnKey {
			break
		}
		// Never take the entry's reconvergence position into the window: the
		// stepped loop pops there instead of executing.
		if key == rpcKey {
			break
		}
	}
	// Pass 2: trim to the lanes' agreement — contiguous pairwise column
	// compares, shrinking n to the earliest disagreement.
	for li := 1; li < active && n > 0; li++ {
		col := ctls[lanes[li]]
		base := int(idxs[li])
		lane := col[base : base+n]
		for j := 0; j < len(lane); j++ {
			if lane[j] != ctl0[j] {
				n = j
				break
			}
		}
	}
	if n == 0 {
		return 0, nil
	}

	// Pass 3: charge the survivors. Scaled instruction charging accumulates
	// per run of identical (func, block, size) elements — one masked control
	// word — and flushes on run breaks, hoisting the per-function,
	// entry-block, and branch-region lookups out of the loop.
	wm := wr.wm
	var fm *FuncMetrics
	offs := wr.offBuf[:0]
	var runKey, runCnt uint64
	for k := 0; k < n; k++ {
		c0 := ctl0[k]
		if rk := c0 & trace.CtlRunMask; rk != runKey || runCnt == 0 {
			wr.flushRunKey(e, runKey, runCnt, active)
			runKey, runCnt = rk, 0
			// The window never leaves pos's function; only the block changes.
			wr.curFn, wr.curBlock = pos.fn, trace.CtlBlock(c0)
		}
		runCnt++
		if cnt := int(c0 >> trace.CtlMemShift & 7); cnt != 0 {
			if fm == nil {
				fm = wr.acc.funcMetrics(pos.fn)
				// Every element before this one carries no accesses.
				for _, l := range lanes {
					c := &wr.cursors[l]
					offs = append(offs, int(c.recs[c.idx+k].MemLo))
				}
				wr.offBuf = offs
			}
			mems := wr.memBuf[:0]
			for li, l := range lanes {
				th := wr.cursors[l].th
				lo, hi := offs[li], offs[li]+cnt
				if cnt == trace.CtlMemOverflow {
					hi = lo + len(th.MemOf(wr.cursors[l].idx+k))
				}
				mems = append(mems, th.Mem[lo:hi:hi])
				offs[li] = hi
			}
			wr.memBuf = mems
			// Shapes the closed form cannot express (oversized, irregular or
			// scattered access lists) go through the stepped engine's path.
			if !wr.mem.chargeUniform(wm, fm, mems) {
				wr.mem.Charge(wm, fm, mems)
			}
		}
	}
	wr.flushRunKey(e, runKey, runCnt, active)
	for _, l := range lanes {
		wr.cursors[l].advance(n)
	}
	e.last, e.hasLast = position{kind: posBlock, fn: pos.fn, block: trace.CtlBlock(ctl0[n-1]), depth: depth}, true
	return n, nil
}

// flushRunKey decodes one run's packed (func, block, N) identity and charges
// it; a zero count is a no-op.
func (wr *warpReplay) flushRunKey(e *entry, key, cnt uint64, active int) {
	if cnt == 0 {
		return
	}
	wr.flushRun(e, trace.CtlFunc(key), trace.CtlBlock(key), key&trace.CtlNMask, cnt, active)
}

// flushRun charges one run of cnt identical lockstep executions of an
// n-instruction block by active lanes — ChargeInstrs, entry-block
// invocation counting, and branch-region accounting scaled by the run
// length. A zero cnt is a no-op.
func (wr *warpReplay) flushRun(e *entry, fn, block uint32, n, cnt uint64, active int) {
	if cnt == 0 {
		return
	}
	total := n * cnt
	fm := wr.acc.funcMetrics(fn)
	ChargeInstrs(wr.wm, fm, total, active)
	if g := wr.graphs[fn]; g != nil && int32(block) == g.Entry() {
		fm.Invocations += cnt
	}
	if e.hasBranch {
		bs := wr.acc.branchStats(e.brFn, e.brBlock)
		bs.RegionLockstep += total
		bs.RegionThreadInstrs += total * uint64(active)
	}
}

// execBlock performs the lockstep execution of one basic block: advances
// every active lane's cursor, charges equation-1 instruction counts, and
// coalesces the block's memory accesses instruction by instruction.
func (wr *warpReplay) execBlock(e *entry, pos position, mask uint64) error {
	lanes := wr.laneBuf[:0]
	mems := wr.memBuf[:0]
	var n uint64
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		c := &wr.cursors[lane]
		ri := c.consumeBlock()
		r := &c.recs[ri]
		if r.Func != pos.fn || r.Block != pos.block {
			wr.laneBuf, wr.memBuf = lanes, mems
			return fmt.Errorf("lane %d consumed f%d.b%d, expected %v", lane, r.Func, r.Block, pos)
		}
		if len(lanes) == 0 {
			n = r.N
		}
		lanes = append(lanes, lane)
		mems = append(mems, c.th.MemOf(ri))
	}
	wr.laneBuf, wr.memBuf = lanes, mems
	wr.flushRun(e, pos.fn, pos.block, n, 1, len(lanes))

	wr.curFn, wr.curBlock = pos.fn, pos.block
	wr.mem.Charge(wr.wm, wr.acc.funcMetrics(pos.fn), mems)

	if wr.opts.Listener != nil {
		threads := wr.threadBuf[:0]
		for _, l := range lanes {
			threads = append(threads, wr.tids[l])
		}
		wr.threadBuf = threads
		wr.exec = BlockExec{
			Warp:     wr.warpIndex,
			Func:     pos.fn,
			Block:    pos.block,
			Depth:    pos.depth,
			N:        n,
			Lanes:    lanes,
			Threads:  threads,
			Mem:      mems,
			NumLanes: wr.opts.WarpSize,
		}
		wr.opts.Listener.OnBlock(&wr.exec)
	}
	e.last, e.hasLast = pos, true
	return nil
}

// maybeSerialize inspects the block about to execute for contended lock
// acquisitions and, when at least two active lanes acquire the same address,
// rebuilds the schedule per the paper: same-lock lanes execute their
// critical sections serially while different-lock lanes proceed in parallel,
// all reconverging at the position following the matching release in the
// first contending lane's trace. Returns true if the stack was changed.
func (wr *warpReplay) maybeSerialize(e *entry, pos position, mask uint64) bool {
	if bits.OnesCount64(mask) < 2 {
		return false
	}
	// First acquire address per lane, if any.
	type laneAcq struct {
		lane int
		addr uint64
	}
	var acqs []laneAcq
	noAcq := uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		addr, ok := wr.cursors[lane].firstAcquire()
		if !ok {
			noAcq |= 1 << uint(lane)
			continue
		}
		acqs = append(acqs, laneAcq{lane: lane, addr: addr})
	}
	if len(acqs) < 2 {
		return false
	}
	// Group lanes by lock address. Lanes acquiring different locks execute
	// in parallel (the paper's fine-grain-locking behaviour); lanes
	// contending for the same address serialize. The schedule is built in
	// rounds: round i holds the i-th contender of every distinct lock (all
	// distinct addresses, so a round never re-serializes), and round 0
	// additionally carries the lanes that acquire nothing.
	order := make([]uint64, 0, len(acqs))
	locks := make(map[uint64][]int, len(acqs))
	for _, a := range acqs {
		if _, seen := locks[a.addr]; !seen {
			order = append(order, a.addr)
		}
		locks[a.addr] = append(locks[a.addr], a.lane)
	}
	rounds := 0
	contended := false
	var firstSerial laneAcq
	for _, addr := range order {
		lanes := locks[addr]
		if len(lanes) > rounds {
			rounds = len(lanes)
		}
		if len(lanes) >= 2 && !contended {
			contended = true
			firstSerial = laneAcq{lane: lanes[0], addr: addr}
		}
	}
	if !contended {
		return false
	}

	var rpc position
	if wr.opts.LockReconvergence == ReconvergeAtRelease {
		var ok bool
		rpc, ok = wr.cursors[firstSerial.lane].releasePosition(firstSerial.addr)
		if !ok {
			rpc = position{kind: posExit, fn: pos.fn, depth: pos.depth}
		}
	} else {
		rpc = position{kind: posExit, fn: pos.fn, depth: pos.depth}
	}

	roundMasks := make([]uint64, rounds)
	var serialized uint64
	for _, addr := range order {
		for i, lane := range locks[addr] {
			roundMasks[i] |= 1 << uint(lane)
			if i > 0 {
				wr.wm.SerializedLanes++
				serialized++
			}
		}
	}
	roundMasks[0] |= noAcq
	wr.wm.LockSerializations++
	fm := wr.acc.funcMetrics(pos.fn)
	fm.LockSerializations++
	fm.SerializedLanes += serialized

	// Parent waits at the reconvergence point; push later rounds first so
	// round 0 ends on top of the stack and executes first. When the critical
	// section is one self-looping block, rpc equals the current position and
	// each round must execute its block before the reconvergence check.
	mustExec := rpc == pos
	for i := rounds - 1; i >= 0; i-- {
		wr.stack = append(wr.stack, entry{mask: roundMasks[i], rpc: rpc, hasRPC: true, mustExec: mustExec})
	}
	return true
}

// firstAcquire returns the address of the first lock-acquire operation in
// the thread's next block record, if its next position is a block.
func (c *cursor) firstAcquire() (uint64, bool) {
	i := c.peekBlock()
	if i < 0 {
		return 0, false
	}
	for _, l := range c.th.LocksOf(i) {
		if !l.Release {
			return l.Addr, true
		}
	}
	return 0, false
}
