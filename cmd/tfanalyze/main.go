// Command tfanalyze is the ThreadFuser analyzer front-end: it reads a .tft
// MIMD trace (produced by cmd/tftrace) and prints the SIMT projection — the
// program's SIMT efficiency per equation 1, the per-function breakdown that
// pinpoints divergence bottlenecks (figure 7), the memory-divergence
// profile (figure 10) and the synchronization/skipped-instruction summary
// (figures 8 and 9).
//
// Usage:
//
//	tfanalyze -trace pigz.tft
//	tfanalyze -trace pigz.tft -warp 8 -funcs 10
//	tfanalyze -trace svc.tft -locks -formation greedy
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"threadfuser/internal/core"
	"threadfuser/internal/prof"
	"threadfuser/internal/serve"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// stopProfiles finishes any active -cpuprofile/-memprofile collection; fatal
// calls it so error exits still flush profiles.
var stopProfiles = func() {}

func main() {
	var (
		path      = flag.String("trace", "", "input .tft trace (required)")
		warpSize  = flag.Int("warp", 32, "warp width to model (1..64)")
		locks     = flag.Bool("locks", false, "emulate intra-warp lock serialization (figure 9)")
		formation = flag.String("formation", "round-robin", "warp batching: round-robin, strided or greedy")
		nfuncs    = flag.Int("funcs", 8, "per-function rows to print (0 = all)")
		warps     = flag.Bool("warps", false, "print per-warp efficiencies")
		exclude   = flag.String("exclude", "", "comma-separated functions to exclude from analysis (with their callees)")
		only      = flag.String("only", "", "comma-separated functions to restrict the analysis to (with their callees)")
		dump      = flag.Int("dump", -1, "dump this thread's event stream instead of analyzing")
		dumpMax   = flag.Int("dump-max", 200, "max records to dump")
		asJSON    = flag.Bool("json", false, "emit the full report as JSON")
		sweep     = flag.Bool("sweep", false, "print an efficiency sweep over warp sizes 4..64 and exit")
		branches  = flag.Int("branches", 5, "divergent-branch rows to print (0 = none)")
		parallel  = flag.Int("parallel", 0, "replay worker count (0 = all cores, 1 = serial; results are identical)")
		useCache  = flag.Bool("cache", false, "serve identical (trace, options) analyses from the on-disk report cache")
		cacheDir  = flag.String("cache-dir", "", "report cache directory (implies -cache; default $XDG_CACHE_HOME/threadfuser)")
		server    = flag.String("server", "", "analyze via a running tfserve instance at this URL instead of locally")
		tenant    = flag.String("tenant", "", "tenant identity sent with -server requests")
		noFusion  = flag.Bool("no-fusion", false, "disable the lockstep-fusion replay fast path (A/B verification; results are identical)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfanalyze -trace file.tft [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tfanalyze: unexpected argument %q (traces are passed with -trace)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "tfanalyze: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	opts := core.Defaults()
	opts.WarpSize = *warpSize
	opts.EmulateLocks = *locks
	opts.Parallelism = *parallel
	opts.DisableLockstepFusion = *noFusion
	if opts.Formation, err = warp.ParseFormation(*formation); err != nil {
		fatal(fmt.Errorf("unknown formation %q", *formation))
	}

	if *server != "" {
		// Server mode streams the file as-is: the service decodes, dedups
		// against identical in-flight uploads, and replays. Local-only
		// transforms have no server-side equivalent.
		if *exclude != "" || *only != "" || *dump >= 0 || *sweep {
			fatal(fmt.Errorf("-server mode does not support -exclude, -only, -dump or -sweep"))
		}
		f, err := os.Open(*path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		c := serve.Client{BaseURL: *server, Tenant: *tenant}
		rep, err := c.Analyze(context.Background(), f, opts)
		if err != nil {
			fatal(err)
		}
		output(rep, *asJSON, *nfuncs, *warps, *branches)
		return
	}

	tr, err := trace.ReadFileParallel(*path, *parallel)
	if err != nil {
		fatal(err)
	}
	cache := core.OpenFlagCache(*useCache, *cacheDir)
	if *exclude != "" {
		tr, err = trace.ExcludeFunctions(tr, strings.Split(*exclude, ",")...)
		if err != nil {
			fatal(err)
		}
	}
	if *only != "" {
		tr, err = trace.OnlyFunctions(tr, strings.Split(*only, ",")...)
		if err != nil {
			fatal(err)
		}
	}
	if *dump >= 0 {
		if err := trace.Dump(os.Stdout, tr, *dump, *dumpMax); err != nil {
			fatal(err)
		}
		return
	}

	// A session validates the trace and builds DCFG+IPDOM once, for one
	// analysis or all five -sweep points.
	sess := core.NewSession()
	sess.SetCache(cache)
	if *sweep {
		fmt.Printf("%-10s %s\n", "warp size", "SIMT efficiency")
		for _, ws := range []int{4, 8, 16, 32, 64} {
			o := opts
			o.WarpSize = ws
			rep, err := sess.Analyze(tr, o)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-10d %5.1f%%\n", ws, rep.Efficiency*100)
		}
		return
	}
	rep, err := sess.Analyze(tr, opts)
	if err != nil {
		fatal(err)
	}
	output(rep, *asJSON, *nfuncs, *warps, *branches)
}

// output writes the report as indented JSON or as the text summary.
func output(rep *core.Report, asJSON bool, nfuncs int, perWarp bool, nbranches int) {
	if !asJSON {
		printReport(rep, nfuncs, perWarp, nbranches)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

func printReport(rep *core.Report, nfuncs int, perWarp bool, nbranches int) {
	fmt.Printf("program            %s\n", rep.Program)
	fmt.Printf("threads/warps      %d / %d (warp size %d)\n", rep.Threads, rep.Warps, rep.WarpSize)
	fmt.Printf("SIMT efficiency    %.1f%%  (instruction-weighted %.1f%%)\n",
		rep.Efficiency*100, rep.WeightedEfficiency*100)
	fmt.Printf("instructions       %d by threads, %d lockstep issues\n", rep.TotalInstrs, rep.LockstepInstrs)
	fmt.Printf("memory divergence  %.2f heap tx/instr, %.2f stack tx/instr (%d mem instrs)\n",
		rep.HeapTxPerInstr, rep.StackTxPerInstr, rep.MemInstrs)
	fmt.Printf("synchronization    %d serializations, %d serialized lanes\n",
		rep.LockSerializations, rep.SerializedLanes)
	fmt.Printf("traced             %.1f%% (skipped: %d I/O, %d spin)\n",
		rep.TracedPercent, rep.SkippedIO, rep.SkippedSpin)

	if nfuncs != 0 {
		fmt.Printf("\n%-24s %12s %12s %12s\n", "FUNCTION", "INSTR SHARE", "EFFICIENCY", "INVOCATIONS")
		for i, f := range rep.PerFunction {
			if nfuncs > 0 && i >= nfuncs {
				fmt.Printf("... %d more\n", len(rep.PerFunction)-i)
				break
			}
			fmt.Printf("%-24s %11.1f%% %11.1f%% %12d\n",
				f.Name, f.InstrShare*100, f.Efficiency*100, f.Invocations)
		}
	}
	if nbranches > 0 && len(rep.Branches) > 0 {
		fmt.Printf("\n%-24s %12s %10s %10s\n", "DIVERGENT BRANCH", "LANES IDLED", "SPLITS", "AVG PATHS")
		for i, br := range rep.Branches {
			if i >= nbranches {
				fmt.Printf("... %d more\n", len(rep.Branches)-i)
				break
			}
			fmt.Printf("%-24s %12d %10d %10.2f\n",
				fmt.Sprintf("%s.b%d", br.Func, br.Block), br.LanesOff, br.Divergences, br.AvgPaths)
		}
	}

	// Occupancy histogram: top contributors only.
	type bucket struct {
		lanes int
		n     uint64
	}
	var total uint64
	var buckets []bucket
	for k, n := range rep.LaneHistogram {
		if n > 0 {
			buckets = append(buckets, bucket{k, n})
			total += n
		}
	}
	if total > 0 {
		fmt.Printf("\nactive-lane occupancy (warp instructions by lane count):\n")
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].n > buckets[j].n })
		for i, b := range buckets {
			if i >= 6 {
				fmt.Printf("  ... %d more buckets\n", len(buckets)-i)
				break
			}
			fmt.Printf("  %2d lanes: %5.1f%%\n", b.lanes, 100*float64(b.n)/float64(total))
		}
	}

	if perWarp {
		fmt.Printf("\nper-warp efficiency:")
		for i, e := range rep.PerWarpEfficiency {
			if i%8 == 0 {
				fmt.Printf("\n  ")
			}
			fmt.Printf("w%-3d %5.1f%%  ", i, e*100)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "tfanalyze:", err)
	os.Exit(1)
}
