// Command tfcheck is the ThreadFuser verification engine front-end: it runs
// the analyzer's invariant catalog (internal/check) over .tft traces,
// built-in workloads, and randomized generated traces, across a warp-width ×
// parallelism configuration matrix. It is the standing oracle the analyzer's
// perf work must pass: serial and parallel replay bit-identical, width-1
// efficiency exactly 1.0, instruction conservation, lock-emulation
// monotonicity, coalescing bounds, codec round trips, and equation-1
// recombination.
//
// Usage:
//
//	tfcheck -all
//	tfcheck pigz.tft svc.tft
//	tfcheck -workload other.pigz -warps 1,8,32 -parallel 1,4
//	tfcheck -gen 50 -seed 7
//	tfcheck -all -props determinism,recombine -json
//
// The exit status is 2 for usage errors, 1 if any input fails to load or any
// property is violated, and 0 otherwise. Violations found on generated
// traces are shrunk to minimal reproducers; -repro-dir writes them as .tft
// files for tfanalyze/tflint to chew on.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/serve"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

func main() {
	var (
		wlNames    = flag.String("workload", "", "comma-separated built-in workloads to trace and check")
		all        = flag.Bool("all", false, "check every registered workload")
		threads    = flag.Int("threads", 0, "thread count for workload tracing (0 = workload default)")
		seed       = flag.Int64("seed", 1, "seed for workload inputs and generated traces")
		runs       = flag.Int("gen", 0, "also check this many generated random traces (seeds seed..seed+n-1)")
		warpsFlag  = flag.String("warps", "1,4,32", "comma-separated warp widths to cross-check")
		parFlag    = flag.String("parallel", "1,4", "comma-separated replay worker counts to cross-check")
		formations = flag.String("formations", "round-robin", "comma-separated warp batchings: round-robin, strided, greedy")
		propNames  = flag.String("props", "", "comma-separated property ids to run (default all); see -list")
		list       = flag.Bool("list", false, "list the available properties and exit")
		asJSON     = flag.Bool("json", false, "emit reports as a JSON array")
		reproDir   = flag.String("repro-dir", "", "write shrunken reproducer traces for generated failures to this directory")
		quiet      = flag.Bool("q", false, "print only failing inputs")
		useCache   = flag.Bool("cache", false, "serve already-verified (trace, options) replays from the on-disk report cache")
		cacheDir   = flag.String("cache-dir", "", "report cache directory (implies -cache; default $XDG_CACHE_HOME/threadfuser)")
		server     = flag.String("server", "", "check via a running tfserve instance at this URL instead of locally")
		tenant     = flag.String("tenant", "", "tenant identity sent with -server requests")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfcheck [flags] [trace.tft ...]\n")
		fmt.Fprintf(os.Stderr, "verifies analyzer invariants over .tft traces, built-in workloads (-workload, -all),\n")
		fmt.Fprintf(os.Stderr, "and generated random traces (-gen)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, p := range check.Properties() {
			fmt.Printf("%-14s %s\n", p.ID(), p.Desc())
		}
		return
	}

	opts := check.Options{Cache: core.OpenFlagCache(*useCache, *cacheDir)}
	var err error
	if opts.WarpSizes, err = parseInts(*warpsFlag); err != nil {
		usageError("bad -warps: %v", err)
	}
	if opts.Parallelism, err = parseInts(*parFlag); err != nil {
		usageError("bad -parallel: %v", err)
	}
	for _, f := range strings.Split(*formations, ",") {
		form, err := warp.ParseFormation(strings.TrimSpace(f))
		if err != nil {
			usageError("unknown formation %q", f)
		}
		opts.Formations = append(opts.Formations, form)
	}
	if *propNames != "" {
		opts.Props = strings.Split(*propNames, ",")
	}

	// Assemble the input list: files first, then workloads, in argument
	// order. Workload loaders also hand back the program so the
	// static-oracle invariants run; .tft files carry no IR and leave them
	// vacuously true.
	inputs, err := workloads.Inputs(flag.Args(), *wlNames, *all, workloads.Config{Threads: *threads, Seed: *seed})
	if err != nil {
		usageError("%v", err)
	}
	if len(inputs) == 0 && *runs == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *server != "" && *runs > 0 {
		usageError("-server mode does not support -gen (shrinking needs the local engine)")
	}

	failed := false
	var reports []*check.Report
	client := serve.Client{BaseURL: *server, Tenant: *tenant}
	for _, in := range inputs {
		var rep *check.Report
		tr, prog, err := in.Load()
		switch {
		case err != nil:
		case *server != "":
			// The static-oracle invariants skip server-side, exactly as for
			// .tft file inputs locally (uploads carry no IR).
			var buf bytes.Buffer
			if err = trace.Encode(&buf, tr, 3); err == nil {
				rep, err = client.Check(context.Background(), &buf, in.Name, opts)
			}
		default:
			inOpts := opts
			inOpts.Prog = prog
			if rep, err = check.Run(in.Name, tr, inOpts); err != nil {
				usageError("%v", err)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tfcheck: %s: %v\n", in.Name, err)
			failed = true
			continue
		}
		reports = append(reports, rep)
	}

	var failures []*check.GenFailure
	if *runs > 0 {
		genReports, genFailures, err := check.RunGenerated(opts, *seed, *runs)
		if err != nil {
			usageError("%v", err)
		}
		reports = append(reports, genReports...)
		failures = genFailures
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, "tfcheck:", err)
			os.Exit(1)
		}
	} else {
		for _, rep := range reports {
			if *quiet && rep.OK() {
				continue
			}
			rep.Render(os.Stdout)
		}
	}
	for _, rep := range reports {
		if !rep.OK() {
			failed = true
		}
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "tfcheck: seed %d: %d violations, shrunk to %d threads / %d records\n",
			f.Seed, len(f.Report.Violations), f.ReproThreads, f.ReproRecords)
		if *reproDir != "" {
			path := filepath.Join(*reproDir, fmt.Sprintf("tfcheck-repro-%d.tft", f.Seed))
			if err := trace.WriteFile(path, f.Repro); err != nil {
				fmt.Fprintf(os.Stderr, "tfcheck: writing %s: %v\n", path, err)
			} else {
				fmt.Fprintf(os.Stderr, "tfcheck: wrote reproducer %s\n", path)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tfcheck: %s\n", fmt.Sprintf(format, args...))
	os.Exit(2)
}
