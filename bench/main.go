// Command bench is ThreadFuser's end-to-end benchmark. It measures what
// users run, in the production configuration: tfanalyze -json on v3 and v1
// files, tfserve uploads on cache misses and hits, and tfanalyze -sweep
// sessions, all on Table-I-scale traces generated from -seed. See README.md.
//
// One run of one workload; the last line of output is the result object:
//
//	bash bench/run.sh --workload analyze-v3-convergent --seed 1 --seconds 20 --trace 0
//
// A set of runs over every workload, then a comparison of two sets:
//
//	bash bench/run.sh --runs 10 --seed 1 --out bench/out/A.json
//	bash bench/run.sh -compare bench/out/A.json bench/out/B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// outDir receives result and span files, relative to the repository root.
const outDir = "bench/out"

// setupReps is how many times an untraced run sets up; setup_s is the median.
const setupReps = 3

// maxTracedCycles bounds the traced phase to about ten ops per input.
const maxTracedCycles = 10

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: every workload)")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds      = flag.Float64("seconds", 10, "least time a run measures")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		runs         = flag.Int("runs", 1, "runs per workload; with several, seeds are seed, seed+1, ...")
		out          = flag.String("out", "", "file a set of runs is written to (default "+outDir+"/set-<seed>-trace<n>.json)")
		compareMode  = flag.Bool("compare", false, "compare two sets of runs: -compare A.json B.json")
		child        = flag.Bool("child", false, "internal: run the measured or traced phase over the inputs in -dir")
		dir          = flag.String("dir", "", "internal: prepared inputs of a -child run")
	)
	flag.Parse()
	if *compareMode {
		if flag.NArg() != 2 {
			fatalf("usage: -compare A.json B.json")
		}
		rows, err := compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(rows)
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 0 || *runs < 1 {
		fatalf("-seconds must be >= 0 and -runs >= 1")
	}
	opts := runOptions{seed: *seed, seconds: *seconds, traced: *traced == 1, spawn: true}
	if *child {
		os.Exit(childMain(*workloadName, *dir, opts))
	}
	ws := benchWorkloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []*workload{w}
	}
	if len(ws) == 1 && *runs == 1 {
		os.Exit(singleMain(ws[0], opts))
	}
	os.Exit(setMain(ws, *runs, *out, opts))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	// small traces each input at its reduced DefaultThreads (the smoke test).
	small bool
	// spawn runs the phase in a child process, so peak RSS and GC state
	// belong to the phase alone; tests run it in-process.
	spawn bool
	// minOps and maxCycles override the defaults (tests run 2 ops).
	minOps, maxCycles int
	// workRoot holds each run's scratch directory (default .bench_build).
	workRoot string
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets up a workload's inputs, runs its phase and returns the
// metrics. Set-up runs setupReps times for an untraced run; the last pass
// also builds the references.
func runWorkload(w *workload, o runOptions) (*runResult, error) {
	root := o.workRoot
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reps := setupReps
	if o.traced {
		reps = 1
	}
	var setupS, traceS []float64
	for r := 0; r < reps; r++ {
		res, err := prepare(w, o.seed, o.small, dir, r == reps-1)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, res.seconds)
		traceS = append(traceS, res.traceSeconds)
	}
	var pr *phaseResult
	if o.spawn {
		pr, err = spawnPhase(w, dir, o)
	} else {
		pr, err = runPhase(o.phaseConfig(w, dir))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.traced {
		pr.Metrics["vm.trace_s"] = metric{median(traceS), "s"}
	} else {
		pr.Metrics["setup_s"] = metric{median(setupS) + pr.SetupSeconds, "s"}
	}
	return &runResult{
		Workload: w.name, Seed: o.seed, Trace: boolInt(o.traced),
		Correct: pr.Failed == 0, Attempted: pr.Attempted, Failed: pr.Failed,
		Samples: pr.Samples, Errors: pr.Errors, Metrics: pr.Metrics,
	}, nil
}

func (o runOptions) phaseConfig(w *workload, dir string) phaseConfig {
	pc := phaseConfig{w: w, dir: dir, seed: o.seed, seconds: o.seconds, traced: o.traced,
		minOps: minOpsFor(0.9), maxCycles: maxTracedCycles}
	if o.minOps > 0 {
		pc.minOps = o.minOps
	}
	if o.maxCycles > 0 {
		pc.maxCycles = o.maxCycles
	}
	return pc
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spawnPhase runs the phase in a child process of this binary and reads its
// result from the child's last line of output.
func spawnPhase(w *workload, dir string, o runOptions) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-dir", dir,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(boolInt(o.traced)))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("phase process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var pr phaseResult
	if err := json.Unmarshal(lines[len(lines)-1], &pr); err != nil {
		return nil, fmt.Errorf("reading phase result: %w", err)
	}
	return &pr, nil
}

// childMain runs one phase over prepared inputs and prints its result.
func childMain(name, dir string, o runOptions) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	pr, err := runPhase(o.phaseConfig(w, dir))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.traced {
		writeJSON(filepath.Join(outDir, "spans-"+w.name+".json"), pr.Spans)
	}
	b, err := json.Marshal(pr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// singleMain runs one workload once and prints the result object as the
// last line of output.
func singleMain(w *workload, o runOptions) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printRows(res)
	writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", w.name, res.Trace)), res)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runSet is a set of runs, the input to -compare.
type runSet struct {
	Runs []*runResult `json:"runs"`
}

// setMain runs every given workload runs times, seeds seed, seed+1, ...,
// and writes the set.
func setMain(ws []*workload, runs int, out string, o runOptions) int {
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("set-%d-trace%d.json", o.seed, boolInt(o.traced)))
	}
	var set runSet
	code := 0
	for r := 0; r < runs; r++ {
		ro := o
		ro.seed = o.seed + int64(r)
		for _, w := range ws {
			res, err := runWorkload(w, ro)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printRows(res)
			if !res.Correct {
				code = 1
			}
			set.Runs = append(set.Runs, res)
		}
	}
	if err := writeJSON(out, set); err != nil {
		return 1
	}
	fmt.Println("wrote", out)
	return code
}

// printRows prints one "workload metric value unit" row per metric.
func printRows(r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s samples %d (seed %d, %d attempted, %d failed)\n", r.Workload, r.Samples, r.Seed, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("%s error %s\n", r.Workload, e)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing", path+":", err)
	}
	return err
}
