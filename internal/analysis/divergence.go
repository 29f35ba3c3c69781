package analysis

import (
	"fmt"
	"sort"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/trace"
)

// divergencePass ranks the branches whose divergent regions waste the most
// issue bandwidth before their IPDOM reconvergence point, and flags
// DARM-style meldable diamonds: two-way branches whose arms have similar
// block and instruction profiles, which DARM (Saumya et al.) shows can be
// melded into predicated straight-line code to recover SIMT efficiency.
type divergencePass struct{}

func (divergencePass) ID() string { return "divergence" }
func (divergencePass) Desc() string {
	return "divergent regions ranked by issue slots lost before IPDOM reconvergence; meldable diamonds (DARM)"
}

// Reporting thresholds: the share of the program's total issue slots a
// region must waste to be worth a finding at each severity.
const (
	divInfoShare = 0.02
	divWarnShare = 0.10
	// darmSimilarity is the minimum static-instruction similarity (smaller
	// arm over larger arm) for two branch arms to count as meldable.
	darmSimilarity = 0.75
	// darmMaxArmBlocks bounds the arm size; melding pays off for compact
	// diamonds, not whole subgraphs.
	darmMaxArmBlocks = 4
)

func (divergencePass) Run(ctx *Context) error {
	rep, err := ctx.Report(false)
	if err != nil {
		return err
	}
	warpSize := uint64(ctx.Opts.WarpSize)
	totalSlots := rep.LockstepInstrs * warpSize
	if totalSlots == 0 {
		return nil
	}

	// diverged records the branch sites that split warps at runtime; the
	// DARM check only flags diamonds the replay actually diverged at.
	type branchKey struct {
		fn    uint32
		block int32
	}
	diverged := make(map[branchKey]bool, len(rep.Branches))

	for _, br := range rep.Branches {
		fn, ok := ctx.funcID(br.Func)
		if !ok || br.Divergences == 0 {
			continue
		}
		diverged[branchKey{fn, int32(br.Block)}] = true
		share := float64(br.LostSlots) / float64(totalSlots)
		if share < divInfoShare {
			continue
		}
		sev := SevInfo
		if share >= divWarnShare {
			sev = SevWarning
		}
		f := finding("divergence", sev)
		f.Function = br.Func
		f.Block = int32(br.Block)
		rpc := ctx.PDoms[fn].IPDom(int32(br.Block))
		f.Message = fmt.Sprintf("divergent region loses %.1f%% of the program's issue slots (%d of %d) before reconverging at b%d; %d split(s), avg %.1f paths",
			share*100, br.LostSlots, totalSlots, rpc, br.Divergences, br.AvgPaths)
		f.Details = map[string]string{
			"lost_slots":  fmt.Sprintf("%d", br.LostSlots),
			"reconverge":  fmt.Sprintf("%d", rpc),
			"divergences": fmt.Sprintf("%d", br.Divergences),
		}
		ctx.add(f)
	}

	// Diamond melding is a per-function graph walk; fan the functions out
	// over the worker pool and append results in id order so findings are
	// identical at every parallelism setting.
	fns := make([]uint32, 0, len(ctx.Graphs))
	for fn := range ctx.Graphs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i] < fns[j] })
	results := make([][]Finding, len(fns))
	pool.ForEach(ctx.Opts.Parallelism, len(fns), func(_, i int) error {
		fn := fns[i]
		graph := ctx.Graphs[fn]
		pd := ctx.PDoms[fn]
		for b := int32(0); b < int32(graph.NBlocks); b++ {
			if !diverged[branchKey{fn, b}] {
				continue
			}
			if f, ok := meldableDiamond(ctx, fn, graph, pd, b); ok {
				results[i] = append(results[i], f)
			}
		}
		return nil
	})
	for _, fs := range results {
		for _, f := range fs {
			ctx.add(f)
		}
	}
	return nil
}

// meldableDiamond checks whether block b terminates a DARM-meldable
// diamond: exactly two successors, disjoint compact arms that both flow
// only into the branch's reconvergence point, and arms of similar static
// instruction weight.
func meldableDiamond(ctx *Context, fn uint32, g *cfg.DCFG, pd *ipdom.PostDom, b int32) (Finding, bool) {
	succs := g.Succs(b)
	if len(succs) != 2 {
		return Finding{}, false
	}
	rpc := pd.IPDom(b)
	s0, s1 := succs[0], succs[1]
	if s0 == rpc || s1 == rpc || s0 == g.ExitNode() || s1 == g.ExitNode() {
		return Finding{}, false // a triangle or an exit arm, not a diamond
	}
	armA, okA := armBlocks(g, s0, rpc, b)
	armB, okB := armBlocks(g, s1, rpc, b)
	if !okA || !okB || len(armA) > darmMaxArmBlocks || len(armB) > darmMaxArmBlocks {
		return Finding{}, false
	}
	for blk := range armA {
		if armB[blk] {
			return Finding{}, false // arms share blocks; melding would duplicate work
		}
	}
	blocks := ctx.Trace.Funcs[fn].Blocks
	instrsA, instrsB := armInstrs(blocks, armA), armInstrs(blocks, armB)
	if instrsA == 0 || instrsB == 0 {
		return Finding{}, false
	}
	small, large := instrsA, instrsB
	if small > large {
		small, large = large, small
	}
	similarity := float64(small) / float64(large)
	if similarity < darmSimilarity {
		return Finding{}, false
	}
	f := finding("divergence", SevInfo)
	f.Function = ctx.Trace.FuncName(fn)
	f.Block = b
	f.Message = fmt.Sprintf("meldable divergent diamond (DARM): arms of %d/%d block(s) and %d/%d instruction(s) (%.0f%% similar) reconverge at b%d",
		len(armA), len(armB), instrsA, instrsB, similarity*100, rpc)
	f.Details = map[string]string{
		"similarity": fmt.Sprintf("%.2f", similarity),
		"reconverge": fmt.Sprintf("%d", rpc),
	}
	return f, true
}

// armBlocks collects the blocks reachable from start without passing
// through stop (the reconvergence point). It fails when the arm escapes —
// reaching the exit, looping back through the branch, or growing past any
// plausible diamond size.
func armBlocks(g *cfg.DCFG, start, stop, branch int32) (map[int32]bool, bool) {
	const maxArm = 16
	arm := map[int32]bool{}
	work := []int32{start}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if blk == stop || arm[blk] {
			continue
		}
		if blk == g.ExitNode() || blk == branch || len(arm) >= maxArm {
			return nil, false
		}
		arm[blk] = true
		work = append(work, g.Succs(blk)...)
	}
	return arm, true
}

func armInstrs(blocks []trace.BlockInfo, arm map[int32]bool) uint64 {
	var n uint64
	for blk := range arm {
		n += uint64(blocks[blk].NInstr)
	}
	return n
}
