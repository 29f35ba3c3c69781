// Package hwsim is the reproduction's stand-in for the paper's hardware
// oracle (an NVIDIA H100 measured with Nsight Compute, section IV): a
// lockstep SIMT executor that runs the canonical build of a workload
// *directly* on a modelled SIMT machine and measures ground-truth SIMT
// efficiency and memory transactions.
//
// Unlike the analyzer (internal/core), which predicts SIMT behaviour from
// sequentially-collected MIMD traces and dynamically reconstructed CFGs,
// hwsim executes live: each warp advances its threads basic block by basic
// block under a hardware SIMT stack, with branch outcomes computed during
// the lockstep run and reconvergence points taken from the *static*
// per-function CFG, as a compiler/hardware pair would. The two paths are
// fully independent above the instruction interpreter, which makes their
// agreement a meaningful correlation experiment (paper figure 5) and a
// strong differential test.
package hwsim

import (
	"fmt"
	"math/bits"
	"sort"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// Options configure a lockstep run.
type Options struct {
	// WarpSize is the SIMD width (lanes per warp).
	WarpSize int
	// MaxInstrs bounds the per-thread traced instruction count; zero means
	// the VM default.
	MaxInstrs uint64
	// Listener, if non-nil, observes every lockstep block execution; the
	// warp-trace generator uses it to emit "native GPU" (nvbit-style)
	// traces for the correlation workloads.
	Listener simt.Listener
}

// Run executes nthreads instances of the program's entry function in
// lockstep warps and returns the measured metrics. args, if non-nil,
// initializes each thread's registers, exactly as in vm.TraceAll — the
// same workload Setup can drive both paths.
func Run(p *vm.Process, nthreads int, opts Options, args func(tid int, th *vm.Thread)) (*simt.Result, error) {
	if opts.WarpSize <= 0 || opts.WarpSize > simt.MaxWarpSize {
		return nil, fmt.Errorf("hwsim: warp size %d out of range [1,%d]", opts.WarpSize, simt.MaxWarpSize)
	}
	graphs := cfg.FromProgram(p.Prog)
	pdoms := ipdom.ComputeAll(graphs)

	res := &simt.Result{
		WarpSize: opts.WarpSize,
		Funcs:    make(map[uint32]*simt.FuncMetrics),
	}
	maxInstrs := opts.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 20_000_000
	}

	for start := 0; start < nthreads; start += opts.WarpSize {
		end := start + opts.WarpSize
		if end > nthreads {
			end = nthreads
		}
		w := &warpExec{
			index:     len(res.Warps),
			res:       res,
			graphs:    graphs,
			pdoms:     pdoms,
			opts:      opts,
			maxInstrs: maxInstrs,
		}
		for tid := start; tid < end; tid++ {
			th := p.NewThread(tid)
			if args != nil {
				args(tid, th)
			}
			w.threads = append(w.threads, th)
		}
		res.Warps = append(res.Warps, simt.WarpMetrics{})
		w.wm = &res.Warps[len(res.Warps)-1]
		if err := w.run(); err != nil {
			return nil, fmt.Errorf("hwsim: warp %d: %w", w.index, err)
		}
	}
	return res, nil
}

// pos identifies a lane's next block for lockstep comparison; depth
// disambiguates recursive invocations, mirroring internal/simt.
type pos struct {
	kind  uint8 // 0 block, 1 exit-marker (reconvergence only)
	fn    uint32
	block uint32
	depth int32
}

func (p pos) key() uint64 {
	return uint64(p.kind)<<62 | uint64(p.depth&0x3fff)<<48 | uint64(p.fn)<<24 | uint64(p.block)
}

const (
	kindBlock = 0
	kindExit  = 1
)

type hwEntry struct {
	mask   uint64
	rpc    pos
	hasRPC bool
	last   pos
	hasLST bool
}

type hwGroup struct {
	pos  pos
	mask uint64
}

type warpExec struct {
	index     int
	res       *simt.Result
	wm        *simt.WarpMetrics
	graphs    map[uint32]*cfg.DCFG
	pdoms     map[uint32]*ipdom.PostDom
	opts      Options
	maxInstrs uint64
	threads   []*vm.Thread
	done      uint64
	stack     []hwEntry
	mem       simt.MemCharger
}

func (w *warpExec) lanePos(lane int) (pos, bool) {
	th := w.threads[lane]
	if th.Done() {
		return pos{}, false
	}
	fn, b := th.Current()
	return pos{kind: kindBlock, fn: uint32(fn), block: uint32(b), depth: int32(th.Depth())}, true
}

// atOrPast reports whether a lane position has reached the reconvergence
// point: exact match for block points, or having returned below the
// reconvergence frame (which is how function-exit reconvergence manifests in
// live execution — the lane is already in the caller).
func atOrPast(p, rpc pos) bool {
	if rpc.kind == kindExit {
		return p.depth < rpc.depth
	}
	return p == rpc || p.depth < rpc.depth
}

func (w *warpExec) group(active uint64) []hwGroup {
	var groups []hwGroup
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		p, ok := w.lanePos(lane)
		if !ok {
			w.done |= 1 << uint(lane)
			continue
		}
		found := false
		for i := range groups {
			if groups[i].pos == p {
				groups[i].mask |= 1 << uint(lane)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, hwGroup{pos: p, mask: 1 << uint(lane)})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].pos.key() < groups[j].pos.key() })
	return groups
}

func (w *warpExec) run() error {
	all := uint64(0)
	for i := range w.threads {
		all |= 1 << uint(i)
	}
	w.stack = append(w.stack, hwEntry{mask: all})

	for steps := 0; len(w.stack) > 0; steps++ {
		e := &w.stack[len(w.stack)-1]
		active := e.mask &^ w.done
		groups := w.group(active)

		if len(groups) == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if e.hasRPC {
			allReached := true
			for _, g := range groups {
				if !atOrPast(g.pos, e.rpc) {
					allReached = false
					break
				}
			}
			if allReached {
				w.stack = w.stack[:len(w.stack)-1]
				continue
			}
		}
		if len(groups) == 1 {
			if err := w.execGroup(e, groups[0]); err != nil {
				return err
			}
			continue
		}
		w.diverge(e, groups)
	}
	return nil
}

func (w *warpExec) diverge(e *hwEntry, groups []hwGroup) {
	rpc := w.reconvergence(e, groups)
	for i := len(groups) - 1; i >= 0; i-- {
		g := groups[i]
		if atOrPast(g.pos, rpc) {
			continue // waits in the parent entry
		}
		w.stack = append(w.stack, hwEntry{mask: g.mask, rpc: rpc, hasRPC: true})
	}
}

func (w *warpExec) reconvergence(e *hwEntry, groups []hwGroup) pos {
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
	// Same rule as the trace-replay engine: when every group is at or
	// below the just-executed block's frame, reconverge at its IPDOM —
	// this covers branch divergence and divergent indirect calls alike.
	if e.hasLST && e.last.kind == kindBlock && minDepth >= e.last.depth {
		return w.ipdomPos(e.last.fn, e.last.block, e.last.depth)
	}
	min := groups[0]
	for _, g := range groups[1:] {
		if g.pos.depth < min.pos.depth {
			min = g
		}
	}
	return pos{kind: kindExit, fn: min.pos.fn, depth: min.pos.depth}
}

func (w *warpExec) ipdomPos(fn, block uint32, depth int32) pos {
	g := w.graphs[fn]
	pd := w.pdoms[fn]
	ip := pd.IPDom(int32(block))
	if ip == g.ExitNode() {
		return pos{kind: kindExit, fn: fn, depth: depth}
	}
	return pos{kind: kindBlock, fn: fn, block: uint32(ip), depth: depth}
}

func (w *warpExec) execGroup(e *hwEntry, g hwGroup) error {
	lanes := make([]int, 0, bits.OnesCount64(g.mask))
	mems := make([][]trace.MemAccess, 0, cap(lanes))
	var n uint64
	for m := g.mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		th := w.threads[lane]
		if th.Executed > w.maxInstrs {
			fn, b := th.Current()
			return fmt.Errorf("lane %d exceeded instruction budget in f%d block %d", lane, fn, b)
		}
		sr, err := th.Step()
		if err != nil {
			return err
		}
		for _, s := range sr.Skips {
			if s.SkipKind == trace.SkipSpin {
				w.res.SkippedSpin += s.N
			} else {
				w.res.SkippedIO += s.N
			}
		}
		n = sr.Rec.N
		lanes = append(lanes, lane)
		mems = append(mems, sr.Mem)
	}

	fm := w.res.Funcs[g.pos.fn]
	if fm == nil {
		fm = &simt.FuncMetrics{}
		w.res.Funcs[g.pos.fn] = fm
	}
	simt.ChargeInstrs(w.wm, fm, n, len(lanes))
	if g.pos.block == 0 {
		fm.Invocations++
	}
	w.mem.Charge(w.wm, fm, mems)

	if w.opts.Listener != nil {
		threads := make([]int, len(lanes))
		for i, l := range lanes {
			threads[i] = w.threads[l].TID()
		}
		w.opts.Listener.OnBlock(&simt.BlockExec{
			Warp:     w.index,
			Func:     g.pos.fn,
			Block:    g.pos.block,
			Depth:    g.pos.depth,
			N:        n,
			Lanes:    lanes,
			Threads:  threads,
			Mem:      mems,
			NumLanes: w.opts.WarpSize,
		})
	}
	e.last, e.hasLST = g.pos, true
	return nil
}
