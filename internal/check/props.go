package check

import (
	"bytes"
	"reflect"
	"slices"

	"threadfuser/internal/analysis"
	"threadfuser/internal/coalesce"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// properties is the invariant catalog, in execution order. Each entry is an
// algebraic statement about the analyzer that must hold for every valid
// trace; DESIGN.md §9 documents the catalog. The static-oracle properties
// come from the analysis.Oracles registry.
var properties = slices.Concat([]Property{
	{
		id:   "determinism",
		desc: "parallel replay is bit-identical to serial at every worker count",
		check: func(c *ctx) {
			for _, base := range c.baseCells() {
				want, ok := c.mustReport(base)
				if !ok {
					continue
				}
				for _, par := range c.opts.Parallelism {
					if par == 1 {
						continue
					}
					cell := base
					cell.Parallelism = par
					got, ok := c.mustReport(cell)
					if !ok {
						continue
					}
					c.assert(cell, reflect.DeepEqual(want, got),
						"report differs from serial replay")
				}
			}
		},
	},
	{
		id:   "width1",
		desc: "warp width 1 gives efficiency exactly 1.0, no divergence, no serialization",
		check: func(c *ctx) {
			for _, f := range c.opts.Formations {
				cell := Cell{WarpSize: 1, Parallelism: 1, Formation: f}
				r, ok := c.mustReport(cell)
				if !ok {
					continue
				}
				c.assert(cell, r.TotalInstrs == r.LockstepInstrs,
					"width-1 lockstep issues (%d) != thread instructions (%d)", r.LockstepInstrs, r.TotalInstrs)
				if r.TotalInstrs > 0 {
					c.assert(cell, r.WeightedEfficiency == 1.0,
						"width-1 weighted efficiency %v != 1.0", r.WeightedEfficiency)
				}
				for i, e := range r.PerWarpEfficiency {
					// A warp whose thread traced nothing reports 0; every
					// other single-lane warp must be exactly 1.0.
					c.assert(cell, e == 1.0 || e == 0,
						"width-1 warp %d efficiency %v (want exactly 1.0)", i, e)
				}
				c.assert(cell, len(r.Branches) == 0,
					"width-1 replay reported %d divergent branches", len(r.Branches))
				for k, n := range r.LaneHistogram {
					c.assert(cell, k == 1 || n == 0,
						"width-1 lane histogram has %d issues at %d lanes", n, k)
				}
				c.assert(cell, r.LockSerializations == 0 && r.SerializedLanes == 0,
					"width-1 replay serialized (%d events, %d lanes)", r.LockSerializations, r.SerializedLanes)

				// A single lane can never contend with itself: lock emulation
				// at width 1 must be a no-op.
				lockCell := cell
				lockCell.Locks = true
				lr, ok := c.mustReport(lockCell)
				if !ok {
					continue
				}
				c.assert(lockCell, reflect.DeepEqual(r, lr),
					"width-1 lock emulation changed the report")
			}
		},
	},
	{
		id:   "conservation",
		desc: "thread instructions and skip counts are invariant across every configuration",
		check: func(c *ctx) {
			wantInstrs := c.tr.TotalInstructions()
			wantIO, wantSpin := c.tr.TotalSkipped()
			for _, cell := range c.baseCells() {
				r, ok := c.mustReport(cell)
				if !ok {
					continue
				}
				c.assert(cell, r.TotalInstrs == wantInstrs,
					"replayed %d thread instructions, trace has %d", r.TotalInstrs, wantInstrs)
				c.assert(cell, r.SkippedIO == wantIO && r.SkippedSpin == wantSpin,
					"skips (%d io, %d spin) differ from trace (%d io, %d spin)",
					r.SkippedIO, r.SkippedSpin, wantIO, wantSpin)
				c.assert(cell, r.Threads == len(c.tr.Threads),
					"report covers %d threads, trace has %d", r.Threads, len(c.tr.Threads))
				wantWarps := (len(c.tr.Threads) + cell.WarpSize - 1) / cell.WarpSize
				c.assert(cell, r.Warps == wantWarps,
					"%d warps formed, want %d", r.Warps, wantWarps)
			}
		},
	},
	{
		id:   "locks",
		desc: "lock emulation only adds serialization: never removes instructions, no-op without contention",
		check: func(c *ctx) {
			for _, w := range c.opts.WarpSizes {
				for _, f := range c.opts.Formations {
					base := Cell{WarpSize: w, Parallelism: 1, Formation: f}
					lock := base
					lock.Locks = true
					br, ok := c.mustReport(base)
					if !ok {
						continue
					}
					lr, ok := c.mustReport(lock)
					if !ok {
						continue
					}
					c.assert(base, br.LockSerializations == 0 && br.SerializedLanes == 0,
						"fine-grain-locking replay reported serialization (%d events)", br.LockSerializations)
					c.assert(lock, lr.TotalInstrs == br.TotalInstrs,
						"lock emulation changed thread instructions: %d -> %d", br.TotalInstrs, lr.TotalInstrs)
					c.assert(lock, lr.LockstepInstrs >= br.LockstepInstrs,
						"lock emulation removed lockstep issues: %d -> %d", br.LockstepInstrs, lr.LockstepInstrs)
					if lr.LockSerializations == 0 {
						c.assert(lock, reflect.DeepEqual(br, lr),
							"no serialization events, yet the report changed")
					}
				}
			}
		},
	},
	{
		id:   "coalesce",
		desc: "transaction counts obey per-access bounds; width-1 counts match direct coalescing",
		check: func(c *ctx) {
			memUpper, txUpper := traceMemBounds(c.tr)
			for _, w := range c.opts.WarpSizes {
				cell := Cell{WarpSize: w, Parallelism: 1, Formation: c.opts.Formations[0]}
				r, ok := c.mustReport(cell)
				if !ok {
					continue
				}
				tx := r.StackTx + r.HeapTx
				c.assert(cell, r.MemInstrs <= memUpper,
					"%d warp memory instructions exceed the trace's %d", r.MemInstrs, memUpper)
				c.assert(cell, tx >= r.MemInstrs,
					"%d transactions for %d memory instructions (each needs >=1)", tx, r.MemInstrs)
				c.assert(cell, tx <= txUpper,
					"%d transactions exceed the uncoalesced per-access total %d", tx, txUpper)
			}
			// Width 1 is exactly computable without the replay engine: each
			// record's accesses coalesce alone, loads and stores separately.
			cell := Cell{WarpSize: 1, Parallelism: 1, Formation: c.opts.Formations[0]}
			if r, ok := c.mustReport(cell); ok {
				mem, stackTx, heapTx := width1MemOracle(c.tr)
				c.assert(cell, r.MemInstrs == mem,
					"width-1 replay counted %d memory instructions, direct count is %d", r.MemInstrs, mem)
				c.assert(cell, r.StackTx == stackTx && r.HeapTx == heapTx,
					"width-1 transactions (%d stack, %d heap) differ from direct coalescing (%d, %d)",
					r.StackTx, r.HeapTx, stackTx, heapTx)
			}
			// Algebra of the coalescer itself on the trace's access sets:
			// counts sit inside coalesce.Bounds, are order-independent, and
			// never decrease when an access is added.
			checkCoalesceAlgebra(c)
		},
	},
	{
		id:   "codec",
		desc: "encode-decode-encode is a fixed point for every codec version",
		check: func(c *ctx) {
			cell := Cell{WarpSize: c.opts.WarpSizes[0], Parallelism: 1, Formation: c.opts.Formations[0]}
			var decoded []*trace.Trace
			for v := 1; v <= 3; v++ {
				var first bytes.Buffer
				if err := trace.Encode(&first, c.tr, v); err != nil {
					c.check()
					c.violatef(cell, "v%d encode: %v", v, err)
					continue
				}
				t2, err := trace.Decode(bytes.NewReader(first.Bytes()))
				if err != nil {
					c.check()
					c.violatef(cell, "v%d decode of own encoding: %v", v, err)
					continue
				}
				var second bytes.Buffer
				if err := trace.Encode(&second, t2, v); err != nil {
					c.check()
					c.violatef(cell, "v%d re-encode: %v", v, err)
					continue
				}
				c.assert(cell, bytes.Equal(first.Bytes(), second.Bytes()),
					"v%d encode(decode(encode(t))) differs from encode(t): %d vs %d bytes",
					v, second.Len(), first.Len())
				c.assert(cell, (c.tr.Validate() == nil) == (t2.Validate() == nil),
					"v%d round trip changed validity", v)
				decoded = append(decoded, t2)
			}
			for i := 1; i < len(decoded); i++ {
				c.assert(cell, reflect.DeepEqual(decoded[0], decoded[i]),
					"the v1 and v%d round trips decode to different traces", i+1)
			}
		},
	},
	{
		id:   "recombine",
		desc: "per-function and per-warp numbers recombine into the whole-program equation-1 value",
		check: func(c *ctx) {
			for _, w := range c.opts.WarpSizes {
				cell := Cell{WarpSize: w, Parallelism: 1, Formation: c.opts.Formations[0]}
				r, ok := c.mustReport(cell)
				if !ok {
					continue
				}
				var fInstrs, fLockstep uint64
				for _, f := range r.PerFunction {
					fInstrs += f.ThreadInstrs
					fLockstep += f.Lockstep
					want := 0.0
					if f.Lockstep > 0 {
						want = float64(f.ThreadInstrs) / (float64(f.Lockstep) * float64(w))
					}
					c.assert(cell, f.Efficiency == want,
						"function %s efficiency %v, recomputed %v", f.Name, f.Efficiency, want)
					wantShare := 0.0
					if r.TotalInstrs > 0 {
						wantShare = float64(f.ThreadInstrs) / float64(r.TotalInstrs)
					}
					c.assert(cell, f.InstrShare == wantShare,
						"function %s instruction share %v, recomputed %v", f.Name, f.InstrShare, wantShare)
				}
				c.assert(cell, fInstrs == r.TotalInstrs,
					"per-function thread instructions sum to %d, program total is %d", fInstrs, r.TotalInstrs)
				c.assert(cell, fLockstep == r.LockstepInstrs,
					"per-function lockstep issues sum to %d, program total is %d", fLockstep, r.LockstepInstrs)

				wantWeighted := 0.0
				if r.LockstepInstrs > 0 {
					wantWeighted = float64(r.TotalInstrs) / (float64(r.LockstepInstrs) * float64(w))
				}
				c.assert(cell, r.WeightedEfficiency == wantWeighted,
					"weighted efficiency %v, recomputed %v", r.WeightedEfficiency, wantWeighted)

				c.assert(cell, len(r.PerWarpEfficiency) == r.Warps,
					"%d per-warp rows for %d warps", len(r.PerWarpEfficiency), r.Warps)
				wantMean := 0.0
				if len(r.PerWarpEfficiency) > 0 {
					sum := 0.0
					for _, e := range r.PerWarpEfficiency {
						sum += e
					}
					wantMean = sum / float64(len(r.PerWarpEfficiency))
				}
				c.assert(cell, r.Efficiency == wantMean,
					"program efficiency %v is not the mean %v of the per-warp efficiencies", r.Efficiency, wantMean)

				var hist, weighted uint64
				for k, n := range r.LaneHistogram {
					hist += n
					weighted += uint64(k) * n
				}
				c.assert(cell, hist == r.LockstepInstrs,
					"lane histogram mass %d != lockstep issues %d", hist, r.LockstepInstrs)
				c.assert(cell, weighted == r.TotalInstrs,
					"lane-weighted histogram mass %d != thread instructions %d", weighted, r.TotalInstrs)
				if len(r.LaneHistogram) > 0 {
					c.assert(cell, r.LaneHistogram[0] == 0,
						"%d lockstep issues with zero active lanes", r.LaneHistogram[0])
				}
			}
		},
	},
}, oracleProperties(), []Property{
	{
		id:   "fusion",
		desc: "lockstep-fusion replay is bit-identical to the per-block engine in every cell",
		check: func(c *ctx) {
			// Deep equality of the whole Report — per-function rows, branch
			// tables, lane histograms, per-site memory histograms — in every
			// base cell implies the strictly stronger statement the catalog
			// needs: no other invariant's verdict can depend on whether the
			// fused fast path or the per-block engine produced the report.
			for _, base := range c.baseCells() {
				want, ok := c.mustReport(base)
				if !ok {
					continue
				}
				cell := base
				cell.NoFusion = true
				got, ok := c.mustReport(cell)
				if !ok {
					continue
				}
				c.assert(cell, reflect.DeepEqual(want, got),
					"fused replay differs from the per-block engine")
			}
		},
	},
	{
		id:   "formation",
		desc: "every warp formation partitions the thread ids exactly once",
		check: func(c *ctx) {
			for _, f := range []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry} {
				for _, w := range c.opts.WarpSizes {
					cell := Cell{WarpSize: w, Parallelism: 1, Formation: f}
					warps, err := warp.Form(c.tr, w, f)
					if err != nil {
						c.check()
						c.violatef(cell, "forming warps: %v", err)
						continue
					}
					c.assert(cell, warp.CheckPartition(warps, len(c.tr.Threads), w) == nil,
						"formation does not partition the threads: %v", warp.CheckPartition(warps, len(c.tr.Threads), w))
				}
			}
		},
	},
})

// oracleProperties turns each static oracle into a soundness property. The
// attached program must describe the trace; then every error-severity
// finding of the oracle's Verify is a violation at the cell it was seen in.
// An oracle that reads the replay is verified in every base cell; one that
// reads only the trace is verified once.
func oracleProperties() []Property {
	var props []Property
	for _, o := range analysis.Oracles() {
		props = append(props, Property{id: o.Prop, desc: o.PropDesc, check: func(c *ctx) {
			prog := c.opts.Prog
			if prog == nil {
				return // trace-only input: no IR, vacuously true
			}
			cells := c.baseCells()
			if err := analysis.MatchProgram(prog, c.tr); err != nil {
				c.check()
				c.violatef(cells[0], "attached program does not match the trace symbol table: %v", err)
				return
			}
			if !o.Replays {
				cells = cells[:1]
			}
			// A trace that cannot be prepared fails every replay cell below;
			// Verify reads the DCFGs only for precision findings.
			graphs, _, _ := c.sess.Prepared(c.tr)
			for _, cl := range cells {
				in := &analysis.VerifyInput{Prog: prog, Trace: c.tr, Formation: cl.Formation, Graphs: graphs}
				if o.Replays {
					r, ok := c.mustReport(cl)
					if !ok {
						continue
					}
					in.Report = r
				}
				c.check()
				for _, f := range o.Verify(in) {
					if f.Severity != analysis.SevError {
						continue
					}
					msg := f.Message
					if loc := f.Location(); loc != "" {
						msg = loc + ": " + msg
					}
					c.check()
					c.violatef(cl, "%s", msg)
				}
			}
		}})
	}
	return props
}

// traceMemBounds computes, straight from the trace, the maximum possible
// warp-level memory-instruction count (one per record × distinct instruction
// index, i.e. nothing ever coalesces across lanes) and the uncoalesced
// transaction total (every access pays its full sector span).
func traceMemBounds(t *trace.Trace) (memInstrs, tx uint64) {
	var idx []uint16
	for _, th := range t.Threads {
		for i := range th.Records {
			mem := th.MemOf(i)
			if th.Records[i].Kind != trace.KindBBL || len(mem) == 0 {
				continue
			}
			idx = idx[:0]
			for _, m := range mem {
				seen := false
				for _, x := range idx {
					if x == m.Instr {
						seen = true
						break
					}
				}
				if !seen {
					idx = append(idx, m.Instr)
				}
				size := uint64(m.Size)
				if size == 0 {
					size = 1
				}
				first := m.Addr / coalesce.TransactionSize
				last := (m.Addr + size - 1) / coalesce.TransactionSize
				tx += last - first + 1
			}
			memInstrs += uint64(len(idx))
		}
	}
	return memInstrs, tx
}

// width1MemOracle recomputes the width-1 replay's memory metrics without the
// replay engine: each record coalesces alone, loads and stores separately
// per instruction index, split by segment.
func width1MemOracle(t *trace.Trace) (memInstrs, stackTx, heapTx uint64) {
	var wm struct{ loads, stores []coalesce.Access }
	for _, th := range t.Threads {
		for i := range th.Records {
			mem := th.MemOf(i)
			if th.Records[i].Kind != trace.KindBBL || len(mem) == 0 {
				continue
			}
			var idx []uint16
			for _, m := range mem {
				seen := false
				for _, x := range idx {
					if x == m.Instr {
						seen = true
						break
					}
				}
				if !seen {
					idx = append(idx, m.Instr)
				}
			}
			for _, id := range idx {
				wm.loads, wm.stores = wm.loads[:0], wm.stores[:0]
				for _, m := range mem {
					if m.Instr != id {
						continue
					}
					a := coalesce.Access{Addr: m.Addr, Size: m.Size}
					if m.Store {
						wm.stores = append(wm.stores, a)
					} else {
						wm.loads = append(wm.loads, a)
					}
				}
				ls, lh := coalesce.Split(wm.loads)
				ss, sh := coalesce.Split(wm.stores)
				memInstrs++
				stackTx += uint64(ls + ss)
				heapTx += uint64(lh + sh)
			}
		}
	}
	return memInstrs, stackTx, heapTx
}

// checkCoalesceAlgebra asserts the coalescer's algebraic laws on access sets
// drawn from the trace: the count sits inside Bounds, is independent of
// access order, and is monotone under adding accesses. Work is capped so
// huge traces stay cheap — the sampled sets are reported in the check count.
func checkCoalesceAlgebra(c *ctx) {
	const maxSets = 256
	cell := Cell{WarpSize: c.opts.WarpSizes[0], Parallelism: 1, Formation: c.opts.Formations[0]}
	sets := 0
	for _, th := range c.tr.Threads {
		for i := range th.Records {
			mem := th.MemOf(i)
			if th.Records[i].Kind != trace.KindBBL || len(mem) == 0 {
				continue
			}
			accs := make([]coalesce.Access, 0, len(mem))
			for _, m := range mem {
				accs = append(accs, coalesce.Access{Addr: m.Addr, Size: m.Size})
			}
			n := coalesce.Count(accs)
			lo, hi := coalesce.Bounds(accs)
			c.assert(cell, n >= lo && n <= hi,
				"Count(%d accesses) = %d outside bounds [%d, %d]", len(accs), n, lo, hi)
			rev := make([]coalesce.Access, len(accs))
			for j := range accs {
				rev[len(accs)-1-j] = accs[j]
			}
			c.assert(cell, coalesce.Count(rev) == n,
				"Count depends on access order: %d vs %d", coalesce.Count(rev), n)
			if len(accs) > 1 {
				sub := coalesce.Count(accs[:len(accs)-1])
				c.assert(cell, sub <= n,
					"dropping an access raised the count: %d -> %d", n, sub)
			}
			sets++
			if sets >= maxSets {
				return
			}
		}
	}
}
