// Command tfdiff compares two MIMD traces through the ThreadFuser analyzer
// — the measure/fix/re-measure loop of the paper's HDSearch-Midtier case
// study (section V-A) as a tool. It prints the headline metric deltas and a
// per-function comparison that shows exactly where an optimization moved
// the needle.
//
// Both sides can be served from the on-disk report cache (-cache/-cache-dir)
// or analyzed by a running tfserve instance (-server/-tenant); either route
// produces byte-identical output to a local analysis.
//
// Usage:
//
//	tftrace -workload usuite.hdsearch.mid       -o before.tft
//	tftrace -workload usuite.hdsearch.mid.fixed -o after.tft
//	tfdiff -a before.tft -b after.tft
//	tfdiff -a before.tft -b after.tft -cache
//	tfdiff -a before.tft -b after.tft -server http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"threadfuser/internal/core"
	"threadfuser/internal/serve"
	"threadfuser/internal/trace"
)

func main() {
	var (
		aPath    = flag.String("a", "", "baseline .tft trace (required)")
		bPath    = flag.String("b", "", "comparison .tft trace (required)")
		warpSize = flag.Int("warp", 32, "warp width to model")
		locks    = flag.Bool("locks", false, "emulate intra-warp lock serialization")
		useCache = flag.Bool("cache", false, "serve identical (trace, options) analyses from the on-disk report cache")
		cacheDir = flag.String("cache-dir", "", "report cache directory (implies -cache; default $XDG_CACHE_HOME/threadfuser)")
		server   = flag.String("server", "", "analyze via a running tfserve instance at this URL instead of locally")
		tenant   = flag.String("tenant", "", "tenant identity sent with -server requests")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tfdiff -a before.tft -b after.tft [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tfdiff: unexpected argument %q (traces are given with -a/-b)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *aPath == "" || *bPath == "" {
		fmt.Fprintln(os.Stderr, "tfdiff: both -a and -b are required")
		flag.Usage()
		os.Exit(2)
	}
	if *server != "" && (*useCache || *cacheDir != "") {
		fmt.Fprintln(os.Stderr, "tfdiff: -cache/-cache-dir are local options; the server manages its own cache")
		os.Exit(2)
	}
	opts := core.Defaults()
	opts.WarpSize = *warpSize
	opts.EmulateLocks = *locks
	cache := core.OpenFlagCache(*useCache, *cacheDir)

	a, err := analyzeFile(*aPath, opts, cache, *server, *tenant)
	if err != nil {
		fatal(err)
	}
	b, err := analyzeFile(*bPath, opts, cache, *server, *tenant)
	if err != nil {
		fatal(err)
	}
	writeDiff(os.Stdout, a, b)
}

// analyzeFile produces one side's report: via a tfserve instance when server
// is set (the file streams as-is; the service decodes and replays), otherwise
// locally through the optional report cache.
func analyzeFile(path string, opts core.Options, cache *core.Cache, server, tenant string) (*core.Report, error) {
	if server != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c := serve.Client{BaseURL: server, Tenant: tenant}
		return c.Analyze(context.Background(), f, opts)
	}
	tr, err := trace.ReadFileParallel(path, 1)
	if err != nil {
		return nil, err
	}
	sess := core.NewSession()
	sess.SetCache(cache)
	return sess.Analyze(tr, opts)
}

// writeDiff renders the full comparison: headline metric deltas, then the
// per-function table matched by name (functions present on only one side
// show a dash), ordered by combined instruction share.
func writeDiff(w io.Writer, a, b *core.Report) {
	fmt.Fprintf(w, "baseline    %s (%d threads)\n", a.Program, a.Threads)
	fmt.Fprintf(w, "comparison  %s (%d threads)\n\n", b.Program, b.Threads)

	row := func(name string, av, bv float64, unit string) {
		delta := bv - av
		sign := "+"
		if delta < 0 {
			sign = ""
		}
		fmt.Fprintf(w, "%-22s %10.2f%s %10.2f%s   (%s%.2f%s)\n", name, av, unit, bv, unit, sign, delta, unit)
	}
	row("SIMT efficiency", a.Efficiency*100, b.Efficiency*100, "%")
	row("heap tx/instr", a.HeapTxPerInstr, b.HeapTxPerInstr, "")
	row("stack tx/instr", a.StackTxPerInstr, b.StackTxPerInstr, "")
	row("traced", a.TracedPercent, b.TracedPercent, "%")
	fmt.Fprintf(w, "%-22s %10d  %10d\n", "thread instructions", a.TotalInstrs, b.TotalInstrs)
	fmt.Fprintf(w, "%-22s %10d  %10d\n", "lockstep issues", a.LockstepInstrs, b.LockstepInstrs)

	names := map[string]bool{}
	for _, f := range a.PerFunction {
		names[f.Name] = true
	}
	for _, f := range b.PerFunction {
		names[f.Name] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return shareOf(a, ordered[i])+shareOf(b, ordered[i]) > shareOf(a, ordered[j])+shareOf(b, ordered[j])
	})

	fmt.Fprintf(w, "\n%-22s %22s %22s\n", "FUNCTION", "BASELINE (share@eff)", "COMPARISON (share@eff)")
	for _, n := range ordered {
		fmt.Fprintf(w, "%-22s %22s %22s\n", n, cell(a, n), cell(b, n))
	}
}

func shareOf(r *core.Report, name string) float64 {
	if f, ok := r.Function(name); ok {
		return f.InstrShare
	}
	return 0
}

func cell(r *core.Report, name string) string {
	f, ok := r.Function(name)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%5.1f%% @ %5.1f%%", f.InstrShare*100, f.Efficiency*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tfdiff:", err)
	os.Exit(1)
}
