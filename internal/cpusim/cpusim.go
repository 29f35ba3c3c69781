// Package cpusim models the multicore CPU baseline the paper normalizes its
// figure-6 speedups against ("Speedup Normalized to Multi-threaded CPU
// execution on actual CPU"). It consumes the same MIMD traces the analyzer
// does: each thread's instruction stream executes on a superscalar core
// model (a base IPC per class) with a per-core L1, shared L2 and a
// bandwidth/latency DRAM model shared with nothing else.
//
// Like gpusim, the model is not calibrated to real silicon; it provides a
// consistent denominator so speedup *shapes* are meaningful. Skipped (I/O)
// instructions are excluded on both sides of the comparison, matching the
// paper's tracing methodology.
package cpusim

import (
	"fmt"

	"threadfuser/internal/cachesim"
	"threadfuser/internal/trace"
)

// Config sizes the multicore baseline.
type Config struct {
	Name string
	// Cores is the number of CPU cores; threads are assigned round-robin
	// and each core runs its threads back to back.
	Cores int
	// IPC is the sustained scalar instructions-per-cycle of one core on
	// cache-resident code (superscalar width after stalls).
	IPC float64
	// L1 is per-core; L2 is shared.
	L1 cachesim.Config
	L2 cachesim.Config
	// DRAMLatency is charged per L2 miss; DRAMBytesPerClk bounds total
	// traffic.
	DRAMLatency     uint64
	DRAMBytesPerClk float64
}

// Xeon20 approximates the paper's trace-collection host (an Intel Xeon
// E5-2630 with 20 cores).
func Xeon20() Config {
	return Config{
		Name:            "xeon-20c",
		Cores:           20,
		IPC:             2.0,
		L1:              cachesim.Config{Sets: 64, Ways: 8, Latency: 4},
		L2:              cachesim.Config{Sets: 4096, Ways: 16, Latency: 40},
		DRAMLatency:     180,
		DRAMBytesPerClk: 8,
	}
}

// Result summarizes a CPU simulation.
type Result struct {
	Config    string
	Cycles    uint64 // max over cores (the parallel makespan)
	Instrs    uint64
	L1HitRate float64
	L2HitRate float64
	DRAMBytes uint64
}

// Run simulates the trace on the configured multicore and returns the
// parallel makespan.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	if cfg.Cores <= 0 || cfg.IPC <= 0 {
		return nil, fmt.Errorf("cpusim: invalid config %+v", cfg)
	}
	l1s := make([]*cachesim.Cache, cfg.Cores)
	for i := range l1s {
		l1s[i] = cachesim.New(cfg.L1)
	}
	l2 := cachesim.New(cfg.L2)
	res := &Result{Config: cfg.Name}

	coreCycles := make([]float64, cfg.Cores)
	var dramBytes uint64
	for ti, th := range tr.Threads {
		core := ti % cfg.Cores
		l1 := l1s[core]
		cycles := 0.0
		for ri := range th.Records {
			r := &th.Records[ri]
			if r.Kind != trace.KindBBL {
				continue
			}
			res.Instrs += r.N
			cycles += float64(r.N) / cfg.IPC
			for _, m := range th.MemOf(ri) {
				switch {
				case l1.Access(m.Addr):
					// Hits overlap with execution on an OoO core.
				case l2.Access(m.Addr):
					cycles += float64(cfg.L2.Latency) / 2 // partial overlap
				default:
					cycles += float64(cfg.DRAMLatency) / 2
					dramBytes += cachesim.LineSize
				}
			}
		}
		coreCycles[core] += cycles
	}

	// Bandwidth bound: total DRAM traffic cannot move faster than the
	// memory system allows, regardless of core count.
	var makespan float64
	for _, c := range coreCycles {
		if c > makespan {
			makespan = c
		}
	}
	if cfg.DRAMBytesPerClk > 0 {
		if bw := float64(dramBytes) / cfg.DRAMBytesPerClk; bw > makespan {
			makespan = bw
		}
	}
	res.Cycles = uint64(makespan)
	res.L1HitRate = cachesim.HitRate(l1s...)
	res.L2HitRate = cachesim.HitRate(l2)
	res.DRAMBytes = dramBytes
	return res, nil
}
