// Package gpusim is a trace-driven SIMT timing simulator, the reproduction's
// stand-in for Accel-Sim (paper sections III and V-A). It consumes the
// warp-based micro-op traces internal/simtrace generates and models the
// cycle-level factors the paper's speedup projections depend on: warp
// scheduling (GTO or loose round-robin), scoreboarded register dependences,
// per-class execution latencies, memory coalescing into 32-byte
// transactions, sectored L1 and shared L2 caches, MSHR-limited outstanding
// misses, and a bandwidth/latency DRAM model.
//
// Absolute cycle counts are not calibrated against real silicon; the model
// exists to preserve the *shape* of figure 6 — which workloads speed up,
// by roughly what factor, and where memory divergence or control divergence
// caps them.
package gpusim

import (
	"fmt"

	"threadfuser/internal/cachesim"
	"threadfuser/internal/coalesce"
	"threadfuser/internal/ir"
	"threadfuser/internal/simtrace"
)

// Scheduler selects the warp-scheduling policy.
type Scheduler uint8

const (
	// GTO is greedy-then-oldest: keep issuing from the current warp until
	// it stalls, then fall back to the oldest ready warp.
	GTO Scheduler = iota
	// LRR is loose round-robin.
	LRR
)

func (s Scheduler) String() string {
	if s == LRR {
		return "lrr"
	}
	return "gto"
}

// Config describes the simulated SIMT machine.
type Config struct {
	Name       string
	NumSMs     int
	WarpsPerSM int // resident-warp slots per SM (occupancy limit)
	IssueWidth int // instructions issued per SM per cycle
	Scheduler  Scheduler

	// Execution latencies per micro-op class (cycles).
	LatALU  uint64
	LatFPU  uint64
	LatSFU  uint64
	LatCtrl uint64
	LatSync uint64

	L1         cachesim.Config
	L2         cachesim.Config
	MSHRsPerSM int

	DRAMLatency      uint64
	DRAMBytesPerClk  float64
	MaxCycles        uint64
	localInterleaved bool
}

// RTX3070 approximates the configuration the paper runs Accel-Sim with
// ("configured with Nvidia RTX 3070 settings"): 46 SMs, 32-wide warps,
// 128KB-class L1s, a 4MB L2 and ~14 bytes/cycle of DRAM bandwidth per the
// whole device at simulator clock.
func RTX3070() Config {
	return Config{
		Name:             "rtx3070",
		NumSMs:           46,
		WarpsPerSM:       32,
		IssueWidth:       2,
		Scheduler:        GTO,
		LatALU:           4,
		LatFPU:           4,
		LatSFU:           16,
		LatCtrl:          4,
		LatSync:          20,
		L1:               cachesim.Config{Sets: 64, Ways: 8, Latency: 28},
		L2:               cachesim.Config{Sets: 1024, Ways: 16, Latency: 120},
		MSHRsPerSM:       32,
		DRAMLatency:      220,
		DRAMBytesPerClk:  32,
		MaxCycles:        2_000_000_000,
		localInterleaved: true,
	}
}

// SmallSIMT is a CPU-adjacent SIMT design (hundreds of threads, the
// architects' design point the paper motivates via SIMR/Simty/SIMT-X):
// fewer, fatter cores with larger caches per lane.
func SmallSIMT() Config {
	c := RTX3070()
	c.Name = "small-simt"
	c.NumSMs = 8
	c.WarpsPerSM = 8
	c.L1 = cachesim.Config{Sets: 128, Ways: 8, Latency: 12}
	c.L2 = cachesim.Config{Sets: 2048, Ways: 16, Latency: 60}
	c.DRAMBytesPerClk = 16
	return c
}

// Result summarizes a simulation.
type Result struct {
	Config     string
	Cycles     uint64
	WarpInstrs uint64
	LaneInstrs uint64
	// IPC is lane-instructions per cycle across the whole device.
	IPC float64

	L1HitRate  float64
	L2HitRate  float64
	DRAMBytes  uint64
	MemTx      uint64 // 32-byte transactions issued after coalescing
	MemStalls  uint64 // issue attempts blocked by MSHR pressure
	DataStalls uint64 // issue attempts blocked by the scoreboard
}

// dram is a shared bandwidth/latency pipe.
type dram struct {
	latency  uint64
	bytesClk float64
	nextFree float64
	Bytes    uint64
}

// access returns the completion cycle of a transaction issued at now.
func (d *dram) access(now uint64, nbytes uint64) uint64 {
	start := float64(now)
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + float64(nbytes)/d.bytesClk
	d.Bytes += nbytes
	return uint64(start) + d.latency
}

// warpCtx is the execution state of one resident warp.
type warpCtx struct {
	stream   *simtrace.WarpStream
	pc       int
	regReady [simtrace.NumTraceRegs]uint64
}

func (w *warpCtx) finished() bool { return w.pc >= len(w.stream.Instrs) }

// mshrRelease frees outstanding-miss slots when transactions complete.
type mshrRelease struct {
	at uint64
	n  int
}

// sm is one streaming multiprocessor.
type sm struct {
	resident    []*warpCtx
	pending     []*simtrace.WarpStream
	l1          *cachesim.Cache
	outstanding int
	releases    []mshrRelease
	greedy      int
}

// Run simulates a kernel trace on the configured machine.
func Run(kt *simtrace.KernelTrace, cfg Config) (*Result, error) {
	if cfg.NumSMs <= 0 || cfg.WarpsPerSM <= 0 || cfg.IssueWidth <= 0 {
		return nil, fmt.Errorf("gpusim: invalid config %+v", cfg)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	sms := make([]*sm, cfg.NumSMs)
	l1s := make([]*cachesim.Cache, cfg.NumSMs)
	for i := range sms {
		l1s[i] = cachesim.New(cfg.L1)
		sms[i] = &sm{l1: l1s[i]}
	}
	for i, ws := range kt.Warps {
		sms[i%cfg.NumSMs].pending = append(sms[i%cfg.NumSMs].pending, ws)
	}
	for _, m := range sms {
		m.admit(cfg.WarpsPerSM)
	}

	l2 := cachesim.New(cfg.L2)
	mem := &dram{latency: cfg.DRAMLatency, bytesClk: cfg.DRAMBytesPerClk}
	res := &Result{Config: cfg.Name}

	cycle := uint64(0)
	for {
		busy := false
		for _, m := range sms {
			if m.step(cycle, cfg, l2, mem, res) {
				busy = true
			}
		}
		if !busy {
			break
		}
		cycle++
		if cycle > cfg.MaxCycles {
			return nil, fmt.Errorf("gpusim: exceeded %d cycles", cfg.MaxCycles)
		}
	}

	res.Cycles = cycle
	if cycle > 0 {
		res.IPC = float64(res.LaneInstrs) / float64(cycle)
	}
	res.L1HitRate = cachesim.HitRate(l1s...)
	res.L2HitRate = cachesim.HitRate(l2)
	res.DRAMBytes = mem.Bytes
	return res, nil
}

// admit moves pending warps into free resident slots.
func (m *sm) admit(slots int) {
	for len(m.resident) < slots && len(m.pending) > 0 {
		m.resident = append(m.resident, &warpCtx{stream: m.pending[0]})
		m.pending = m.pending[1:]
	}
}

// step advances one SM by one cycle; it reports whether the SM still has
// work (resident or pending warps).
func (m *sm) step(cycle uint64, cfg Config, l2 *cachesim.Cache, mem *dram, res *Result) bool {
	// Retire completed warps and free MSHRs.
	for i := 0; i < len(m.resident); {
		if m.resident[i].finished() {
			m.resident = append(m.resident[:i], m.resident[i+1:]...)
		} else {
			i++
		}
	}
	m.admit(cfg.WarpsPerSM)
	for i := 0; i < len(m.releases); {
		if m.releases[i].at <= cycle {
			m.outstanding -= m.releases[i].n
			m.releases = append(m.releases[:i], m.releases[i+1:]...)
		} else {
			i++
		}
	}
	if len(m.resident) == 0 {
		return len(m.pending) > 0
	}

	issued := 0
	n := len(m.resident)
	if m.greedy >= n {
		m.greedy = 0
	}
	// Candidate order: GTO tries the greedy warp first and then the oldest
	// (lowest slot); LRR rotates fairly from the last issuer.
	order := make([]int, 0, n)
	if cfg.Scheduler == GTO {
		order = append(order, m.greedy)
		for i := 0; i < n; i++ {
			if i != m.greedy {
				order = append(order, i)
			}
		}
	} else {
		for i := 1; i <= n; i++ {
			order = append(order, (m.greedy+i)%n)
		}
	}
	for _, idx := range order {
		if issued >= cfg.IssueWidth {
			break
		}
		w := m.resident[idx]
		if w.finished() {
			continue
		}
		if m.tryIssue(w, cycle, cfg, l2, mem, res) {
			issued++
			m.greedy = idx
		}
	}
	return true
}

// tryIssue attempts to issue the warp's next micro-op at the given cycle.
func (m *sm) tryIssue(w *warpCtx, cycle uint64, cfg Config, l2 *cachesim.Cache, mem *dram, res *Result) bool {
	in := &w.stream.Instrs[w.pc]
	for _, s := range in.Srcs {
		if s != simtrace.NoReg && w.regReady[s] > cycle {
			res.DataStalls++
			return false
		}
	}
	if in.Dst != simtrace.NoReg && w.regReady[in.Dst] > cycle {
		res.DataStalls++ // WAW on an in-flight load
		return false
	}

	var done uint64
	switch in.Class {
	case ir.ClassMem:
		txs := transactions(in, cfg)
		if m.outstanding+txs > cfg.MSHRsPerSM {
			res.MemStalls++
			return false
		}
		done = m.serviceMem(in, txs, cycle, cfg, l2, mem)
		res.MemTx += uint64(txs)
		if txs > 0 {
			m.outstanding += txs
			m.releases = append(m.releases, mshrRelease{at: done, n: txs})
		}
	case ir.ClassFPU:
		done = cycle + cfg.LatFPU
	case ir.ClassSFU:
		done = cycle + cfg.LatSFU
	case ir.ClassCtrl:
		done = cycle + cfg.LatCtrl
	case ir.ClassSync:
		done = cycle + cfg.LatSync
	default:
		done = cycle + cfg.LatALU
	}
	if in.Dst != simtrace.NoReg {
		if in.Class == ir.ClassMem && !in.Load {
			// Stores retire without blocking dependents.
		} else {
			w.regReady[in.Dst] = done
		}
	}
	w.pc++
	res.WarpInstrs++
	res.LaneInstrs += uint64(in.ActiveLanes())
	return true
}

// transactions counts the 32-byte transactions the micro-op needs.
func transactions(in *simtrace.WInstr, cfg Config) int {
	if len(in.Addrs) == 0 {
		return 0
	}
	if in.Space == simtrace.SpaceLocal && cfg.localInterleaved {
		// Local memory is lane-interleaved on real GPUs: same-variable
		// accesses across the warp are perfectly coalesced.
		total := len(in.Addrs) * int(in.Size)
		return (total + cachesim.LineSize - 1) / cachesim.LineSize
	}
	accs := make([]coalesce.Access, len(in.Addrs))
	for i, a := range in.Addrs {
		accs[i] = coalesce.Access{Addr: a, Size: in.Size}
	}
	return coalesce.Count(accs)
}

// serviceMem walks each transaction through L1, L2 and DRAM, returning the
// completion cycle of the slowest one.
func (m *sm) serviceMem(in *simtrace.WInstr, txs int, cycle uint64, cfg Config, l2 *cachesim.Cache, mem *dram) uint64 {
	if txs == 0 {
		return cycle + cfg.LatALU
	}
	worst := uint64(0)
	for t := 0; t < txs; t++ {
		addr := txAddr(in, t)
		var done uint64
		switch {
		case m.l1.Access(addr):
			done = cycle + cfg.L1.Latency
		case l2.Access(addr):
			done = cycle + cfg.L1.Latency + cfg.L2.Latency
		default:
			done = mem.access(cycle+cfg.L1.Latency+cfg.L2.Latency, cachesim.LineSize)
		}
		if done > worst {
			worst = done
		}
	}
	return worst
}

// txAddr picks a representative address for transaction t: the t-th
// distinct 32-byte sector touched by the access list.
func txAddr(in *simtrace.WInstr, t int) uint64 {
	if in.Space == simtrace.SpaceLocal {
		// Interleaved local memory: sectors are consecutive.
		return in.Addrs[0] + uint64(t*cachesim.LineSize)
	}
	seen := 0
	var sectors []uint64
	for _, a := range in.Addrs {
		s := a / cachesim.LineSize
		dup := false
		for _, x := range sectors {
			if x == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sectors = append(sectors, s)
		if seen == t {
			return s * cachesim.LineSize
		}
		seen++
	}
	return in.Addrs[len(in.Addrs)-1] &^ (cachesim.LineSize - 1)
}
