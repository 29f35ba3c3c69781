// Package warp groups traced CPU threads into warps for SIMT emulation.
//
// The paper's analyzer "employs a configurable batching algorithm to group
// threads into warps" (section I) and notes that "different batching
// algorithms can be explored in the process of warp formation" (section
// III). This package provides the natural round-robin batching GPUs use for
// consecutive thread ids plus two alternatives used by the ablation bench:
// strided interleaving and a greedy grouping by each thread's dynamic entry
// block, which batches threads that start on the same control path.
package warp

import (
	"fmt"
	"sort"

	"threadfuser/internal/trace"
)

// Formation selects a batching algorithm.
type Formation uint8

const (
	// RoundRobin packs consecutive thread ids: warp k holds threads
	// [k*W, (k+1)*W). This matches CUDA's thread-to-warp mapping and is
	// the paper's default.
	RoundRobin Formation = iota
	// Strided deals threads across warps like cards: thread i lands in
	// warp i % numWarps. It models a worst-case-oblivious scheduler.
	Strided
	// GreedyEntry groups threads whose traces begin with the same first
	// basic block, then packs each group round-robin. For SPMD workloads
	// it matches RoundRobin; for heterogeneous request mixes it batches
	// similar requests together.
	GreedyEntry
)

func (f Formation) String() string {
	switch f {
	case RoundRobin:
		return "round-robin"
	case Strided:
		return "strided"
	case GreedyEntry:
		return "greedy-entry"
	}
	return fmt.Sprintf("formation(%d)", uint8(f))
}

// ParseFormation returns the formation named name: any name String prints,
// plus "greedy" for GreedyEntry.
func ParseFormation(name string) (Formation, error) {
	switch name {
	case "round-robin":
		return RoundRobin, nil
	case "strided":
		return Strided, nil
	case "greedy", "greedy-entry":
		return GreedyEntry, nil
	}
	return 0, fmt.Errorf("unknown formation %q (want round-robin, strided or greedy)", name)
}

// Warp is an ordered set of thread ids executed in lockstep. A trailing
// partial warp (fewer than the warp size) is allowed, as on real hardware.
type Warp []int

// Form partitions the trace's threads into warps of the given width.
func Form(t *trace.Trace, width int, f Formation) ([]Warp, error) {
	if width <= 0 {
		return nil, fmt.Errorf("warp: width must be positive, got %d", width)
	}
	n := len(t.Threads)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}

	switch f {
	case RoundRobin:
		// ids already in order.
	case Strided:
		numWarps := (n + width - 1) / width
		strided := make([]int, 0, n)
		for w := 0; w < numWarps; w++ {
			for i := w; i < n; i += numWarps {
				strided = append(strided, i)
			}
		}
		ids = strided
	case GreedyEntry:
		keys := make([]uint64, n)
		for i, th := range t.Threads {
			keys[i] = entryKey(th)
		}
		sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]] < keys[ids[b]] })
	default:
		return nil, fmt.Errorf("warp: unknown formation %d", f)
	}

	warps := make([]Warp, 0, (n+width-1)/width)
	for start := 0; start < n; start += width {
		end := start + width
		if end > n {
			end = n
		}
		warps = append(warps, Warp(ids[start:end:end]))
	}
	return warps, nil
}

// CheckPartition verifies that warps form an exact partition of thread ids
// 0..threads-1: every id appears exactly once and no warp exceeds the width.
// Every Formation must satisfy this; the verification engine
// (internal/check) asserts it as a standing property.
func CheckPartition(warps []Warp, threads, width int) error {
	seen := make([]bool, threads)
	total := 0
	for wi, w := range warps {
		if len(w) == 0 {
			return fmt.Errorf("warp: warp %d is empty", wi)
		}
		if len(w) > width {
			return fmt.Errorf("warp: warp %d has %d threads > width %d", wi, len(w), width)
		}
		for _, tid := range w {
			if tid < 0 || tid >= threads {
				return fmt.Errorf("warp: warp %d references thread %d outside [0,%d)", wi, tid, threads)
			}
			if seen[tid] {
				return fmt.Errorf("warp: thread %d appears in more than one warp", tid)
			}
			seen[tid] = true
			total++
		}
	}
	if total != threads {
		return fmt.Errorf("warp: %d of %d threads batched", total, threads)
	}
	return nil
}

// entryKey identifies the first executed basic block of a thread trace.
func entryKey(th *trace.ThreadTrace) uint64 {
	for i := range th.Records {
		if r := &th.Records[i]; r.Kind == trace.KindBBL {
			return uint64(r.Func)<<32 | uint64(r.Block)
		}
	}
	return ^uint64(0) // empty trace sorts last
}
