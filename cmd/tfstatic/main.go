// Command tfstatic is the static SIMT oracle: it runs the interprocedural
// uniformity dataflow of internal/staticsimt over built-in workloads'
// programs — no tracing, no replay — and reports, per function, which
// branches are provably warp-uniform, which may diverge (with the taint
// chain that makes them so), where each divergent region reconverges, and
// which diamond arms are meldable (isomorphic modulo register renaming, or
// if-convertible beyond the optimizer's O3 budget).
//
// With -locks or -races it instead runs the static concurrency oracle of
// internal/staticlock over the same programs: must-hold locksets, the static
// lock-order graph with deadlock-cycle candidates, race-candidate address
// classes, and acquires under divergent control (guaranteed SIMT
// serialization, the livelock shape when the critical section spins).
//
// With -mem it runs the static memory oracle of internal/staticmem: every
// load/store site classified by per-lane tid-stride (broadcast, coalesced,
// strided, scattered) with its static transactions-per-warp bound and segment
// claim.
//
// -verify additionally traces each workload and cross-checks the selected
// oracle against dynamic replay through the oracle's tflint pass (see
// analysis.Oracles), exiting nonzero if any soundness-class finding survives.
//
// Usage:
//
//	tfstatic -workload vectoradd -verify
//	tfstatic -workload other.pigz -opt O3 -v
//	tfstatic -workload seededspin -locks
//	tfstatic -workload seededcycle -races -verify
//	tfstatic -workload uncoalesced -mem -verify
//	tfstatic -all -json
//
// The exit status is 2 for usage errors, 1 if any workload fails to load or
// analyze (or, under -verify, if a soundness finding survives), and 0
// otherwise; divergent classifications are reports, not failures. -json
// emits an array of staticsimt.Result, staticlock.Result or staticmem.Result
// values (one per workload, by mode) with a deterministic field and finding
// order, so byte-identical inputs produce byte-identical output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"threadfuser/internal/analysis"
	"threadfuser/internal/opt"
	"threadfuser/internal/serve"
	"threadfuser/internal/workloads"
)

func main() {
	var (
		wlNames = flag.String("workload", "", "comma-separated built-in workloads to analyze")
		all     = flag.Bool("all", false, "analyze every registered workload")
		threads = flag.Int("threads", 0, "thread count for workload instantiation (0 = workload default)")
		seed    = flag.Int64("seed", 7, "input-generator seed for workload instantiation")
		level   = flag.String("opt", "O1", "optimization level to analyze at (O0, O1, O2, O3)")
		budget  = flag.Int("budget", 0, "meld budget separating optimizer-handled from over-budget diamonds (0 = O3 budget)")
		asJSON  = flag.Bool("json", false, "emit results as a JSON array")
		verbose = flag.Bool("v", false, "list every branch, not just the divergent ones")
		quiet   = flag.Bool("q", false, "one summary line per workload")
		locks   = flag.Bool("locks", false, "static concurrency oracle: lock-order graph, cycle candidates, divergent-region acquires")
		races   = flag.Bool("races", false, "static concurrency oracle: race-candidate address classes and their locksets")
		mem     = flag.Bool("mem", false, "static memory oracle: per-site stride classes, transaction bounds, segment claims")
		verify  = flag.Bool("verify", false, "trace the workload and cross-check static predictions against dynamic replay (O1 only)")
		server  = flag.String("server", "", "analyze via a running tfserve instance at this URL instead of locally")
		tenant  = flag.String("tenant", "", "tenant identity sent with -server requests")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfstatic [flags] -workload name[,name...] | -all\n")
		fmt.Fprintf(os.Stderr, "static uniformity analysis of built-in workloads (no tracing)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tfstatic: unexpected argument %q (inputs are workloads, not files)\n", flag.Arg(0))
		os.Exit(2)
	}
	lvl, err := opt.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfstatic:", err)
		os.Exit(2)
	}
	if *verbose && *quiet {
		fmt.Fprintln(os.Stderr, "tfstatic: -v and -q are mutually exclusive")
		os.Exit(2)
	}
	if *mem && (*locks || *races) {
		fmt.Fprintln(os.Stderr, "tfstatic: -mem and -locks/-races are mutually exclusive")
		os.Exit(2)
	}
	mode := "simt"
	switch {
	case *mem:
		mode = "mem"
	case *locks || *races:
		mode = "locks"
	}
	oracle, err := analysis.StaticOracle(mode, *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfstatic:", err)
		os.Exit(2)
	}
	if *server != "" && *verify {
		// The cross-check replays a freshly traced workload; the service only
		// serves the static oracles.
		fmt.Fprintln(os.Stderr, "tfstatic: -server mode does not support -verify")
		os.Exit(2)
	}
	if *verify && lvl != opt.O1 {
		// The cross-check compares static IR positions against traced ones;
		// tracing always runs the instantiated (O1) program.
		fmt.Fprintln(os.Stderr, "tfstatic: -verify requires -opt O1 (the traced program)")
		os.Exit(2)
	}

	list, err := workloads.Select(*wlNames, *all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfstatic:", err)
		os.Exit(2)
	}
	if len(list) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	var results []any
	client := serve.Client{BaseURL: *server, Tenant: *tenant}
	for _, w := range list {
		var (
			sr   *analysis.StaticResult
			inst *workloads.Instance
			err  error
		)
		if *server != "" {
			// Server mode: the service instantiates and analyzes the bundled
			// workload itself; only the parameters travel, all of them, since
			// the service's defaults differ from this CLI's.
			var rep *serve.StaticReport
			if rep, err = client.Static(context.Background(), serve.StaticRequest{
				Workload: w.Name, Mode: mode, Opt: lvl, Threads: *threads, Seed: *seed, Budget: *budget,
			}); err == nil {
				sr = &rep.StaticResult
			}
		} else if inst, err = w.Instantiate(workloads.Config{Threads: *threads, Seed: *seed}); err == nil {
			sr, err = analysis.RunStatic(inst.Prog, lvl, mode, *budget)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfstatic: %s: %v\n", w.Name, err)
			failed = true
			continue
		}
		res, lockRes, memRes := sr.SIMT, sr.Locks, sr.Mem

		switch mode {
		case "mem":
			switch {
			case *asJSON:
				results = append(results, memRes)
			case *quiet:
				fmt.Printf("%-28s %3d mem site(s): %d broadcast, %d coalesced, %d strided, %d scattered, %d meld veto(es)\n",
					w.Name, len(memRes.Sites), memRes.Broadcast, memRes.Coalesced, memRes.Strided, memRes.Scattered, memRes.MeldsRejectedMem)
			default:
				memRes.Render(os.Stdout, *verbose)
			}
		case "locks":
			switch {
			case *asJSON:
				results = append(results, lockRes)
			case *quiet:
				fmt.Printf("%-28s %3d acquire(s) (%d divergent), %d cycle candidate(s), %d race candidate(s)\n",
					w.Name, lockRes.Acquires, lockRes.DivergentAcquires, lockRes.CycleCandidates, lockRes.RaceCandidates)
			default:
				lockRes.Render(os.Stdout, *locks || *verify, *races || *verify, *verbose)
			}
		default:
			switch {
			case *asJSON:
				results = append(results, res)
			case *quiet:
				fmt.Printf("%-28s %3d uniform / %3d divergent branch(es), %d meldable\n",
					w.Name, res.UniformBranches, res.DivergentBranches, res.Meldable)
			default:
				res.Render(os.Stdout, *verbose)
			}
		}
		if *verify && !verifyWorkload(inst, w.Name, oracle) {
			failed = true
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "tfstatic:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// verifyWorkload traces one workload instance and runs the oracle's lint
// pass over it; it reports the pass' findings and returns false when any
// soundness-class (error-severity) finding survives.
func verifyWorkload(inst *workloads.Instance, name string, o *analysis.Oracle) bool {
	tr, err := inst.Trace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfstatic: %s: trace: %v\n", name, err)
		return false
	}
	rep, err := analysis.Run(tr, analysis.Options{Prog: inst.Prog, Passes: []string{o.Pass}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfstatic: %s: verify: %v\n", name, err)
		return false
	}
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if f.Severity != analysis.SevError {
			continue
		}
		fmt.Fprintf(os.Stderr, "tfstatic: %s: SOUNDNESS: %s\n", name, f.Message)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "tfstatic: %s: %d soundness finding(s) survived the dynamic cross-check\n", name, rep.Errors)
		return false
	}
	fmt.Printf("  verified against dynamic replay: %s\n", o.PropDesc)
	return true
}
