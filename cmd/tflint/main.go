// Command tflint is the ThreadFuser multi-pass lint engine: it runs the
// trace sanitizer, the Eraser-style lockset race detector, the divergence
// lint, the lock-serialization lint, the lock-order deadlock pass, and the
// static oracle passes ("static" for uniformity, "staticlock" for the
// concurrency cross-check, "staticmem" for transaction bounds) over one or
// more inputs and reports structured
// findings. Inputs are .tft trace files or built-in workloads traced on the
// fly; the static passes need the workload's IR and skip trace-file inputs.
//
// Usage:
//
//	tflint pigz.tft svc.tft
//	tflint -workload seededrace,leakedlock
//	tflint -all -severity error -json
//	tflint -workload vectoradd -passes lockset,locks
//
// The exit status is 2 for usage errors, 1 if any input fails to load or
// yields a finding at or above -severity, and 0 otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"threadfuser/internal/analysis"
	"threadfuser/internal/core"
	"threadfuser/internal/pool"
	"threadfuser/internal/serve"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

func main() {
	var (
		wlNames   = flag.String("workload", "", "comma-separated built-in workloads to trace and lint")
		all       = flag.Bool("all", false, "lint every registered workload")
		threads   = flag.Int("threads", 0, "thread count for workload tracing (0 = workload default)")
		seed      = flag.Int64("seed", 7, "input-generator seed for workload tracing")
		warpSize  = flag.Int("warp", 32, "warp width to model (1..64)")
		formation = flag.String("formation", "round-robin", "warp batching: round-robin, strided or greedy")
		severity  = flag.String("severity", "warning", "exit non-zero at findings of this severity or above (info, warning, error)")
		passNames = flag.String("passes", "", "comma-separated pass ids to run (default all); see -list")
		list      = flag.Bool("list", false, "list the available passes and exit")
		asJSON    = flag.Bool("json", false, "emit reports as a JSON array")
		parallel  = flag.Int("parallel", 0, "worker count (0 = all cores, 1 = serial; findings are identical)")
		useCache  = flag.Bool("cache", false, "serve identical (trace, options) replay reports from the on-disk report cache")
		cacheDir  = flag.String("cache-dir", "", "report cache directory (implies -cache; default $XDG_CACHE_HOME/threadfuser)")
		server    = flag.String("server", "", "lint via a running tfserve instance at this URL instead of locally")
		tenant    = flag.String("tenant", "", "tenant identity sent with -server requests")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tflint [flags] [trace.tft ...]\n")
		fmt.Fprintf(os.Stderr, "lints .tft traces and/or built-in workloads (-workload, -all)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, p := range analysis.Passes() {
			fmt.Printf("%-12s %s\n", p.ID(), p.Desc())
		}
		return
	}

	threshold, err := analysis.ParseSeverity(*severity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflint:", err)
		os.Exit(2)
	}
	opts := analysis.Options{
		WarpSize:    *warpSize,
		Parallelism: *parallel,
	}
	if opts.Formation, err = warp.ParseFormation(*formation); err != nil {
		fmt.Fprintf(os.Stderr, "tflint: unknown formation %q\n", *formation)
		os.Exit(2)
	}
	if *passNames != "" {
		opts.Passes = strings.Split(*passNames, ",")
	}

	// Assemble the input list: files first, then workloads, in argument
	// order. Workload loaders also hand back the program so the static
	// oracle passes can run; .tft files carry no IR and skip them.
	inputs, err := workloads.Inputs(flag.Args(), *wlNames, *all, workloads.Config{Threads: *threads, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflint:", err)
		os.Exit(2)
	}
	if len(inputs) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	reports := make([]*analysis.Report, len(inputs))
	errs := make([]error, len(inputs))
	if *server != "" {
		// Server mode uploads each input's trace stream; the static oracle
		// passes skip, exactly as for .tft file inputs locally (the server
		// has no IR for an uploaded trace).
		c := serve.Client{BaseURL: *server, Tenant: *tenant}
		for i := range inputs {
			var buf bytes.Buffer
			tr, _, err := inputs[i].Load()
			if err == nil {
				err = trace.Encode(&buf, tr, 3)
			}
			if err != nil {
				errs[i] = err
				continue
			}
			reports[i], errs[i] = c.Lint(context.Background(), &buf, opts)
		}
	} else {
		// One session shares memoized trace preparation across inputs that
		// reuse a trace; each input's lint runs independently on the pool.
		sess := core.NewSession()
		sess.SetCache(core.OpenFlagCache(*useCache, *cacheDir))
		pool.ForEach(*parallel, len(inputs), func(_, i int) error {
			tr, prog, err := inputs[i].Load()
			if err != nil {
				errs[i] = err
				return nil
			}
			inOpts := opts
			inOpts.Prog = prog
			reports[i], errs[i] = analysis.RunSession(sess, tr, inOpts)
			return nil
		})
	}

	failed := false
	if *asJSON {
		out := make([]*analysis.Report, 0, len(reports))
		for i, rep := range reports {
			if errs[i] != nil {
				fmt.Fprintf(os.Stderr, "tflint: %s: %v\n", inputs[i].Name, errs[i])
				failed = true
				continue
			}
			out = append(out, rep)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "tflint:", err)
			os.Exit(1)
		}
	} else {
		for i, rep := range reports {
			if errs[i] != nil {
				fmt.Fprintf(os.Stderr, "tflint: %s: %v\n", inputs[i].Name, errs[i])
				failed = true
				continue
			}
			rep.Render(os.Stdout)
		}
	}
	for i, rep := range reports {
		if errs[i] == nil && rep.CountAtLeast(threshold) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
