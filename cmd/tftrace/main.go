// Command tftrace is the ThreadFuser tracer front-end: it runs one of the
// bundled MIMD workloads through the tracer (the reproduction's stand-in
// for the paper's PIN tool) and writes the per-thread trace to a .tft file
// that cmd/tfanalyze and cmd/tfsim consume.
//
// Usage:
//
//	tftrace -workload other.pigz -threads 128 -o pigz.tft
//	tftrace -workload rodinia.bfs -opt O0 -o bfs-o0.tft
//	tftrace -list
package main

import (
	"flag"
	"fmt"
	"os"

	"threadfuser/internal/ir"
	"threadfuser/internal/opt"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see -list)")
		threads = flag.Int("threads", 0, "thread count (0 = workload default; -paper uses Table I counts)")
		paper   = flag.Bool("paper", false, "use the paper's Table-I thread count")
		seed    = flag.Int64("seed", 1, "input-generation seed")
		level   = flag.String("opt", "O1", "compiler optimization level to model: O0, O1, O2 or O3")
		out     = flag.String("o", "", "output .tft path (default <workload>.tft)")
		list    = flag.Bool("list", false, "list available workloads and exit")
		disasm  = flag.Bool("disasm", false, "print the workload's (post-transform) listing instead of tracing")
		compact = flag.Bool("compact", false, "write the delta-compressed v2 trace format")
		index   = flag.Bool("index", false, "write the indexed v3 format (v2 compression plus a per-thread seek index for streaming/parallel readers)")
		quiet   = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-28s %-16s %13s %s\n", "NAME", "SUITE", "#SIMT THREADS", "DESCRIPTION")
		for _, w := range workloads.All() {
			fmt.Printf("%-28s %-16s %13d %s\n", w.Name, w.Suite, w.PaperThreads, w.Desc)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "tftrace: -workload is required (try -list)")
		os.Exit(2)
	}
	version := 1
	switch {
	case *compact && *index:
		fmt.Fprintln(os.Stderr, "tftrace: -compact and -index are exclusive (v3 already delta-encodes addresses)")
		os.Exit(2)
	case *compact:
		version = 2
	case *index:
		version = 3
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fatal(err)
	}
	lvl, err := opt.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	cfg := workloads.Config{Seed: *seed, Threads: *threads}
	if *paper {
		cfg.Threads = w.PaperThreads
	}
	inst, err := w.Instantiate(cfg)
	if err != nil {
		fatal(err)
	}
	if lvl != opt.O1 {
		inst = inst.WithProgram(opt.Apply(inst.Prog, lvl))
	}
	if *disasm {
		if err := ir.Disassemble(os.Stdout, inst.Prog); err != nil {
			fatal(err)
		}
		return
	}
	tr, err := inst.Trace()
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *name + ".tft"
	}
	f, err := os.Create(path)
	if err == nil {
		err = trace.Encode(f, tr, version)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		io, spin := tr.TotalSkipped()
		fmt.Printf("traced %s (%s, %d threads, %d instructions, %d skipped I/O, %d skipped spin) -> %s\n",
			w.Name, lvl, len(tr.Threads), tr.TotalInstructions(), io, spin, path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tftrace:", err)
	os.Exit(1)
}
