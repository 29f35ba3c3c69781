package simt

import (
	"threadfuser/internal/coalesce"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// ChargeInstrs adds one lockstep execution of an n-instruction block with
// the given number of active lanes to the warp and function metrics
// (equation 1 numerator and denominator).
func ChargeInstrs(wm *WarpMetrics, fm *FuncMetrics, n uint64, active int) {
	wm.Lockstep += n
	wm.ThreadInstrs += n * uint64(active)
	if active >= 0 && active <= MaxWarpSize {
		wm.LaneHistogram[active] += n
	}
	if fm != nil {
		fm.Lockstep += n
		fm.ThreadInstrs += n * uint64(active)
	}
}

// fusedMaxSites bounds the per-element instruction-slot array of the fused
// charge path. Real blocks touch a handful of memory instructions; an
// element with more is charged through Charge.
const fusedMaxSites = 6

// MemCharger coalesces lockstep block executions' memory accesses while
// reusing its instruction-index and per-segment access buffers across
// blocks, keeping the replay inner loop allocation-free. The zero value is
// ready to use; a MemCharger must not be shared between goroutines — each
// replay worker owns one.
type MemCharger struct {
	idx           []uint16
	loads, stores []coalesce.Access
	scratch       coalesce.Scratch

	// Site, when non-nil, observes each per-instruction coalescing outcome:
	// the instruction index within the block just charged and its combined
	// load+store transaction counts per segment. The replay engine hooks the
	// per-site histograms through it; when nil (the lockstep hardware
	// oracle) the accounting path is unchanged.
	Site func(instr uint16, stackTx, heapTx int)
}

// Charge coalesces one lockstep block execution's memory accesses. mems
// holds the active lanes' access lists for the same static block; accesses are
// merged per instruction index, loads and stores coalesce separately into
// 32-byte transactions, and counts are split by stack/heap segment. Both the
// trace-replay engine and the lockstep hardware oracle charge memory through
// this path, so their transaction metrics are directly comparable. fm, when
// non-nil, receives the per-function attribution.
func (mc *MemCharger) Charge(wm *WarpMetrics, fm *FuncMetrics, mems [][]trace.MemAccess) {
	idxList := mc.idx[:0]
	for _, mem := range mems {
		for _, m := range mem {
			found := false
			for _, x := range idxList {
				if x == m.Instr {
					found = true
					break
				}
			}
			if !found {
				idxList = append(idxList, m.Instr)
			}
		}
	}
	mc.idx = idxList
	if len(idxList) == 0 {
		return
	}
	// Insertion sort: index lists are tiny (a handful of memory instructions
	// per block) and this avoids sort.Slice's closure allocation on the
	// hottest accounting path.
	for i := 1; i < len(idxList); i++ {
		for j := i; j > 0 && idxList[j] < idxList[j-1]; j-- {
			idxList[j], idxList[j-1] = idxList[j-1], idxList[j]
		}
	}

	for _, idx := range idxList {
		loads, stores := mc.loads[:0], mc.stores[:0]
		for _, mem := range mems {
			for _, m := range mem {
				if m.Instr != idx {
					continue
				}
				a := coalesce.Access{Addr: m.Addr, Size: m.Size}
				if m.Store {
					stores = append(stores, a)
				} else {
					loads = append(loads, a)
				}
			}
		}
		mc.loads, mc.stores = loads, stores
		ls, lh := mc.scratch.Split(loads)
		ss, sh := mc.scratch.Split(stores)
		wm.MemInstrs++
		if ls+ss > 0 {
			wm.StackMemInstrs++
			wm.StackTx += uint64(ls + ss)
		}
		if lh+sh > 0 {
			wm.HeapMemInstrs++
			wm.HeapTx += uint64(lh + sh)
		}
		if fm != nil {
			fm.MemInstrs++
			fm.HeapTx += uint64(lh + sh)
			fm.StackTx += uint64(ls + ss)
		}
		if mc.Site != nil {
			mc.Site(idx, ls+ss, lh+sh)
		}
	}
}

// colAcc is one instruction column of the fused uniform charge path: lane
// 0's access (whose instruction, size and store kind every lane must share)
// plus the arithmetic address progression being verified across lanes.
type colAcc struct {
	first  trace.MemAccess
	prev   uint64 // last verified lane's address
	stride uint64 // constant lane-to-lane delta (set at lane 1)
}

// sameSite reports whether a has the non-address fields of the column.
func (c *colAcc) sameSite(a *trace.MemAccess) bool {
	return a.Instr == c.first.Instr && a.Size == c.first.Size && a.Store == c.first.Store
}

// chargeUniform is the fused replay's closed-form charge for the dominant
// SIMT access shape: every lane in mems issued the same access list (same
// length, same strictly increasing instruction sequence, same load/store
// kinds and sizes) and each list position's addresses form a non-decreasing
// arithmetic progression across lanes — base+TID*stride table walks and the
// per-thread stack mirror, which is what warp-uniform regions produce. Each
// position then IS one instruction's warp-wide sub-stream in ascending
// address order, and its transaction count follows in closed form from
// (base, stride, size, lanes) — no per-access sector walk at all. The
// outcome is bit-identical to Charge on the same mems. Metric writes happen
// only once every lane has verified; any bail returns false with nothing
// charged, and the caller charges mems through Charge instead.
func (mc *MemCharger) chargeUniform(wm *WarpMetrics, fm *FuncMetrics, mems [][]trace.MemAccess) bool {
	nl := len(mems)
	if nl == 0 {
		return false
	}
	mem0 := mems[0]
	m := len(mem0)
	if m > fusedMaxSites {
		return false
	}
	var cols [fusedMaxSites]colAcc
	if m == 1 {
		// Single memory instruction — the dominant block shape. Keep the
		// whole column in registers: no slot array traffic.
		c := colAcc{first: mem0[0], prev: mem0[0].Addr}
		if c.first.Size == 0 {
			return false
		}
		for li := 1; li < nl; li++ {
			mem := mems[li]
			if len(mem) != 1 || !c.sameSite(&mem[0]) {
				return false
			}
			a := mem[0].Addr
			if li == 1 {
				if a < c.prev {
					return false
				}
				c.stride = a - c.prev
			} else if a != c.prev+c.stride || a < c.prev {
				// Off the progression, or on it only modulo 2^64.
				return false
			}
			c.prev = a
		}
		cols[0] = c
	} else {
		prev := -1
		for j := range mem0 {
			// Strictly increasing instruction indices mean each instruction
			// owns exactly one column (no split sub-streams) and the commit
			// order below matches Charge's sorted order for free.
			if int(mem0[j].Instr) <= prev || mem0[j].Size == 0 {
				return false
			}
			prev = int(mem0[j].Instr)
			cols[j] = colAcc{first: mem0[j], prev: mem0[j].Addr}
		}
		// Lane 1 sets each column's stride; later lanes only verify it, so
		// the per-lane loop below carries no lane-index branch.
		if nl > 1 {
			mem := mems[1]
			if len(mem) != m {
				return false
			}
			for j := range mem {
				c := &cols[j]
				if !c.sameSite(&mem[j]) || mem[j].Addr < c.prev {
					return false
				}
				c.stride = mem[j].Addr - c.prev
				c.prev = mem[j].Addr
			}
		}
		for li := 2; li < nl; li++ {
			mem := mems[li]
			if len(mem) != m {
				return false
			}
			for j := range mem {
				c := &cols[j]
				if a := mem[j].Addr; !c.sameSite(&mem[j]) || a != c.prev+c.stride || a < c.prev {
					return false
				}
				c.prev = mem[j].Addr
			}
		}
	}
	// Check every column before charging any, so a bail leaves nothing
	// charged.
	for j := 0; j < m; j++ {
		c := &cols[j]
		if aN := c.prev; aN+uint64(c.first.Size)-1 < aN || vm.SegmentOf(c.first.Addr) != vm.SegmentOf(aN) {
			// Wrapping span arithmetic, or a progression crossing a segment
			// boundary (each access charges to its own segment there).
			return false
		}
	}
	for j := 0; j < m; j++ {
		c := &cols[j]
		a0, z, aN := c.first.Addr, uint64(c.first.Size), c.prev
		first0 := a0 / coalesce.TransactionSize
		last0 := (a0 + z - 1) / coalesce.TransactionSize
		var count int
		switch s := c.stride; {
		case s <= z:
			// Byte-contiguous or overlapping accesses union into one
			// interval: the whole span's sectors.
			count = int((aN+z-1)/coalesce.TransactionSize - first0 + 1)
		case s%coalesce.TransactionSize == 0:
			// Identical alignment every lane: spans are congruent, and they
			// either chain sector-contiguously (telescoping to the whole
			// span) or stay pairwise disjoint.
			if s/coalesce.TransactionSize <= last0-first0 {
				count = int((aN+z-1)/coalesce.TransactionSize - first0 + 1)
			} else {
				count = nl * int(last0-first0+1)
			}
		default:
			// Mixed alignment: replay the sorted sector walk purely
			// arithmetically — no loads, the addresses are a_0 + i*s.
			count = int(last0 - first0 + 1)
			prevLast := last0
			a := a0
			for i := 1; i < nl; i++ {
				a += s
				f, l := a/coalesce.TransactionSize, (a+z-1)/coalesce.TransactionSize
				if f <= prevLast {
					f = prevLast + 1
				}
				if l >= f {
					count += int(l - f + 1)
					prevLast = l
				}
			}
		}
		if count > coalesce.SectorCap {
			count = coalesce.SectorCap
		}
		var st, ht int
		if vm.SegmentOf(a0) == vm.SegStack {
			st = count
		} else {
			ht = count
		}
		wm.MemInstrs++
		if st > 0 {
			wm.StackMemInstrs++
			wm.StackTx += uint64(st)
		}
		if ht > 0 {
			wm.HeapMemInstrs++
			wm.HeapTx += uint64(ht)
		}
		if fm != nil {
			fm.MemInstrs++
			fm.HeapTx += uint64(ht)
			fm.StackTx += uint64(st)
		}
		if mc.Site != nil {
			mc.Site(c.first.Instr, st, ht)
		}
	}
	return true
}
