// Package workloads provides synthetic mini-ISA implementations of the 36
// MIMD CPU workloads the paper studies (Table I), engineered to reproduce
// each application's published control-flow, memory and synchronization
// signature: pigz's data-dependent compression loops, N-body's convergent
// O(n²) force kernel, HDSearch-Midtier's FLANN getpoint divergence,
// microservice request processing with allocator locks and I/O regions, and
// so on. Every workload is buildable at a reduced default scale (so the full
// suite analyzes in seconds) or at the paper's Table-I thread counts.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"threadfuser/internal/hwsim"
	"threadfuser/internal/ir"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// Suite names group workloads as in Table I.
const (
	SuiteRodinia  = "Rodinia 3.1"
	SuiteParopoly = "Paropoly"
	SuiteMicro    = "Micro Benchmark"
	SuiteUSuite   = "uSuite"
	SuiteDSB      = "DeathStarBench"
	SuiteParsec   = "ParSec 3.0"
	SuiteOther    = "Others"
)

// Config scales a workload instance.
type Config struct {
	// Threads overrides the workload's default thread count (0 keeps it).
	Threads int
	// Seed drives the deterministic input generators.
	Seed int64
	// Scale multiplies inner problem sizes (0 means 1). Used by benches to
	// shrink or grow per-thread work without changing behaviour.
	Scale float64
}

func (c Config) scale(n int) int {
	if c.Scale <= 0 {
		return n
	}
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// ArgFn initializes a thread's registers before it runs.
type ArgFn func(tid int, th *vm.Thread)

// SetupFn seeds a fresh process's memory with the workload's inputs and
// returns the per-thread argument initializer.
type SetupFn func(p *vm.Process) (ArgFn, error)

// Workload describes one Table-I entry.
type Workload struct {
	Name  string
	Suite string
	Desc  string
	// DefaultThreads is the reduced-scale thread count used by tests and
	// benches; PaperThreads is the Table-I SIMT thread count.
	DefaultThreads int
	PaperThreads   int
	// HasGPUImpl marks the 11 correlation workloads with CUDA twins.
	HasGPUImpl bool
	// Microservice marks the data-center set used by figures 8-10.
	Microservice bool

	// Build constructs the program and setup for a configuration.
	Build func(cfg Config) (*ir.Program, SetupFn, error)
}

// Instance is a built workload ready to trace or execute.
type Instance struct {
	Workload *Workload
	Config   Config
	Prog     *ir.Program
	setup    SetupFn
	threads  int
}

// Threads returns the instance's thread count.
func (i *Instance) Threads() int { return i.threads }

// NewProcess allocates and seeds a fresh process for the instance.
func (i *Instance) NewProcess() (*vm.Process, ArgFn, error) {
	p := vm.NewProcess(i.Prog)
	args, err := i.setup(p)
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: %s setup: %w", i.Workload.Name, err)
	}
	return p, args, nil
}

// Trace runs the tracer over all threads of a fresh process.
func (i *Instance) Trace() (*trace.Trace, error) {
	p, args, err := i.NewProcess()
	if err != nil {
		return nil, err
	}
	return vm.TraceAll(p, i.threads, vm.RunConfig{}, args)
}

// RunHardware executes the instance on the lockstep hardware oracle.
func (i *Instance) RunHardware(warpSize int, listener simt.Listener) (*simt.Result, error) {
	p, args, err := i.NewProcess()
	if err != nil {
		return nil, err
	}
	return hwsim.Run(p, i.threads, hwsim.Options{WarpSize: warpSize, Listener: listener}, args)
}

// WithProgram returns a new instance that runs a transformed build of the
// same workload (e.g. an internal/opt optimization-level variant) with the
// identical setup and inputs. The transformed program must keep the same
// function ids and argument conventions, which opt's transforms do.
func (i *Instance) WithProgram(prog *ir.Program) *Instance {
	ni := *i
	ni.Prog = prog
	return &ni
}

// Instantiate builds the workload at the given configuration.
func (w *Workload) Instantiate(cfg Config) (*Instance, error) {
	threads := cfg.Threads
	if threads == 0 {
		threads = w.DefaultThreads
	}
	cfg.Threads = threads
	prog, setup, err := w.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("workloads: building %s: %w", w.Name, err)
	}
	return &Instance{Workload: w, Config: cfg, Prog: prog, setup: setup, threads: threads}, nil
}

var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate workload %q", w.Name))
	}
	registry[w.Name] = w
	return w
}

// ByName returns the named workload, or an error listing valid names.
func ByName(name string) (*Workload, error) {
	if w, ok := registry[name]; ok {
		return w, nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %d registered; see workloads.All)", name, len(registry))
}

// Select resolves a CLI's workload selection: every workload when all is
// set, else the comma-separated names in list, in order. An empty list
// selects none; an unknown name is an error.
func Select(list string, all bool) ([]*Workload, error) {
	if all {
		return All(), nil
	}
	if list == "" {
		return nil, nil
	}
	var out []*Workload
	for _, name := range strings.Split(list, ",") {
		w, err := ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Input is one tflint or tfcheck input: a .tft trace file, or a workload
// traced when loaded.
type Input struct {
	Name string
	// Load reads or traces the input. A workload also yields its program,
	// which a trace file does not carry.
	Load func() (*trace.Trace, *ir.Program, error)
}

// Inputs lists the trace files at paths, then the workloads that Select
// resolves from list and all, instantiated under cfg when loaded.
func Inputs(paths []string, list string, all bool, cfg Config) ([]Input, error) {
	ws, err := Select(list, all)
	if err != nil {
		return nil, err
	}
	var in []Input
	for _, path := range paths {
		in = append(in, Input{Name: path, Load: func() (*trace.Trace, *ir.Program, error) {
			tr, err := trace.ReadFileParallel(path, 1)
			return tr, nil, err
		}})
	}
	for _, w := range ws {
		in = append(in, Input{Name: w.Name, Load: func() (*trace.Trace, *ir.Program, error) {
			inst, err := w.Instantiate(cfg)
			if err != nil {
				return nil, nil, err
			}
			tr, err := inst.Trace()
			return tr, inst.Prog, err
		}})
	}
	return in, nil
}

// All returns every registered workload ordered by suite then name, the
// order Table I lists them in.
func All() []*Workload {
	out := make([]*Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return suiteRank(out[i].Suite) < suiteRank(out[j].Suite)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TableI returns the 36 workloads of the paper's Table I (excluding study
// variants such as hdsearch-mid-fixed).
func TableI() []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.PaperThreads > 0 {
			out = append(out, w)
		}
	}
	return out
}

// Correlation returns the 11 workloads with GPU twins used in section IV.
func Correlation() []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.HasGPUImpl {
			out = append(out, w)
		}
	}
	return out
}

// Microservices returns the data-center set used by figures 8-10.
func Microservices() []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Microservice && w.PaperThreads > 0 {
			out = append(out, w)
		}
	}
	return out
}

func suiteRank(s string) int {
	switch s {
	case SuiteRodinia:
		return 0
	case SuiteParopoly:
		return 1
	case SuiteMicro:
		return 2
	case SuiteUSuite:
		return 3
	case SuiteDSB:
		return 4
	case SuiteParsec:
		return 5
	case SuiteOther:
		return 6
	}
	return 7
}
