// Command tfsim drives the SIMT timing simulator (the reproduction's
// Accel-Sim stand-in). It accepts either a warp trace (.wtr, produced by
// -emit below or by the library) or a MIMD trace (.tft), in which case it
// first runs the ThreadFuser warp-trace generator. With -cpu it also runs
// the multicore CPU baseline on the MIMD trace and reports the projected
// speedup (the figure-6 pipeline).
//
// Usage:
//
//	tftrace -workload paropoly.nbody -threads 512 -o nbody.tft
//	tfsim -trace nbody.tft -cpu
//	tfsim -trace nbody.tft -emit nbody.wtr    # write the warp trace
//	tfsim -trace nbody.wtr -config small      # rerun on another machine
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"threadfuser/internal/cpusim"
	"threadfuser/internal/gpusim"
	"threadfuser/internal/simtrace"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

func main() {
	var (
		path     = flag.String("trace", "", "input trace: .tft (MIMD) or .wtr (warp) (required)")
		warpSize = flag.Int("warp", 32, "warp width when generating from a .tft trace")
		config   = flag.String("config", "rtx3070", "SIMT machine: rtx3070 or small")
		sched    = flag.String("scheduler", "gto", "warp scheduler: gto or lrr")
		cpu      = flag.Bool("cpu", false, "also run the multicore CPU baseline (.tft input only)")
		emit     = flag.String("emit", "", "write the generated warp trace to this .wtr path and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfsim -trace input.tft|input.wtr [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tfsim: unexpected argument %q (the trace is given with -trace)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "tfsim: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	var (
		kt  *simtrace.KernelTrace
		mim *trace.Trace
		err error
	)
	if strings.HasSuffix(*path, ".wtr") {
		kt, err = simtrace.ReadFile(*path)
		if err != nil {
			fatal(err)
		}
	} else {
		mim, err = trace.ReadFileParallel(*path, 1)
		if err != nil {
			fatal(err)
		}
		w, werr := workloads.ByName(mim.Program)
		if werr != nil {
			fatal(fmt.Errorf("trace program %q is not a bundled workload: %w", mim.Program, werr))
		}
		inst, ierr := w.Instantiate(workloads.Config{Seed: 1, Threads: len(mim.Threads)})
		if ierr != nil {
			fatal(ierr)
		}
		kt, err = simtrace.Generate(inst.Prog, mim, *warpSize)
		if err != nil {
			fatal(err)
		}
	}

	if *emit != "" {
		if err := simtrace.WriteFile(*emit, kt); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d warps, %d micro-ops -> %s\n", len(kt.Warps), kt.TotalInstrs(), *emit)
		return
	}

	cfg := gpusim.RTX3070()
	if *config == "small" {
		cfg = gpusim.SmallSIMT()
	} else if *config != "rtx3070" {
		fatal(fmt.Errorf("unknown config %q", *config))
	}
	switch *sched {
	case "gto":
		cfg.Scheduler = gpusim.GTO
	case "lrr":
		cfg.Scheduler = gpusim.LRR
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *sched))
	}

	res, err := gpusim.Run(kt, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine      %s (%s scheduler)\n", res.Config, cfg.Scheduler)
	fmt.Printf("kernel       %s: %d warps, %d micro-ops (%d lane instrs)\n",
		kt.Program, len(kt.Warps), res.WarpInstrs, res.LaneInstrs)
	fmt.Printf("cycles       %d (IPC %.2f)\n", res.Cycles, res.IPC)
	fmt.Printf("memory       %d tx, L1 %.1f%%, L2 %.1f%%, %d DRAM bytes\n",
		res.MemTx, res.L1HitRate*100, res.L2HitRate*100, res.DRAMBytes)
	fmt.Printf("stalls       %d scoreboard, %d MSHR\n", res.DataStalls, res.MemStalls)

	if *cpu {
		if mim == nil {
			fatal(fmt.Errorf("-cpu requires a .tft input (the CPU baseline executes the MIMD trace)"))
		}
		c, err := cpusim.Run(mim, cpusim.Xeon20())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cpu baseline %s: %d cycles (L1 %.1f%%, L2 %.1f%%)\n",
			c.Config, c.Cycles, c.L1HitRate*100, c.L2HitRate*100)
		fmt.Printf("speedup      %.2fx\n", float64(c.Cycles)/float64(res.Cycles))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tfsim:", err)
	os.Exit(1)
}
