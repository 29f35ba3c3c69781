// Package check is the ThreadFuser verification engine: a property- and
// differential-testing layer that runs traces through configuration matrices
// and asserts the analyzer's algebraic invariants across them.
//
// The analyzer's headline numbers (SIMT efficiency per equation 1, memory
// divergence, lock serialization) are only trustworthy if the replay engine
// is self-consistent across configurations: serial and parallel replay must
// be bit-identical, warp width 1 must give efficiency exactly 1.0, lock
// emulation may add serialization but never create or destroy thread
// instructions, coalescing transaction counts must obey per-access bounds,
// and the per-function breakdown must recombine into the whole-program
// equation-1 value. Each of those statements is a Property here; cmd/tfcheck
// runs them over the built-in workloads, .tft files, and randomized
// generated traces (with shrinking to minimal reproducers), and every future
// performance PR must keep them green.
package check

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"threadfuser/internal/core"
	"threadfuser/internal/ir"
	"threadfuser/internal/pool"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// AnalyzeFunc runs the analyzer over a trace at one configuration. The
// engine's default is a memoized core.Session; tests substitute a mutated
// analyzer to prove the properties actually catch broken replays.
type AnalyzeFunc func(*trace.Trace, core.Options) (*core.Report, error)

// Options configure a verification run. The zero value checks the default
// matrix (warp widths 1/4/32 × parallelism 1/4, round-robin formation) with
// every property.
type Options struct {
	// Props selects property ids to run (default: all). See Properties.
	Props []string
	// WarpSizes is the warp-width axis of the matrix (default {1, 4, 32}).
	WarpSizes []int
	// Parallelism is the replay worker-count axis (default {1, 4}).
	// Level 1 is always checked; the determinism property compares every
	// other level against it.
	Parallelism []int
	// Formations is the warp-batching axis (default {RoundRobin}).
	Formations []warp.Formation
	// Analyze overrides the analyzer under test: fault injection for the
	// engine's own tests, or a caller's own session (the analysis service
	// keys deduplication on that session's digest). Nil uses a memoized
	// core.Session.
	Analyze AnalyzeFunc
	// Prog attaches the traced program's IR, enabling the static-oracle
	// soundness properties, one per analysis.Oracles entry: "staticuniform",
	// "staticlockset" and "staticcoalesce". Nil leaves them vacuously true:
	// trace-only inputs have no IR.
	Prog *ir.Program
	// Cache, if set, is attached to the default session, so matrix cells
	// already analyzed in an earlier run skip replay. Ignored when Analyze
	// is overridden (fault-injected analyzers must actually run).
	Cache *core.Cache
	// Context, if non-nil, cancels the matrix's replays; the analysis
	// service threads request timeouts through it. A canceled cell surfaces
	// as that cell's analysis error, not a partial verdict.
	Context context.Context
}

func (o Options) withDefaults() Options {
	if len(o.WarpSizes) == 0 {
		o.WarpSizes = []int{1, 4, 32}
	}
	if len(o.Parallelism) == 0 {
		o.Parallelism = []int{1, 4}
	}
	if len(o.Formations) == 0 {
		o.Formations = []warp.Formation{warp.RoundRobin}
	}
	return o
}

// Cell is one point of the configuration matrix a property evaluated.
type Cell struct {
	WarpSize    int
	Parallelism int
	Formation   warp.Formation
	Locks       bool
	// NoFusion runs the cell with the lockstep-fusion fast path disabled —
	// the per-block replay engine. The "fusion" property compares every base
	// cell against its NoFusion twin.
	NoFusion bool
}

func (c Cell) String() string {
	s := fmt.Sprintf("warp=%d par=%d %s", c.WarpSize, c.Parallelism, c.Formation)
	if c.Locks {
		s += " locks"
	}
	if c.NoFusion {
		s += " nofusion"
	}
	return s
}

// Violation is one failed invariant: which property, on which input, at
// which matrix cell, and what went wrong.
type Violation struct {
	Prop   string `json:"prop"`
	Input  string `json:"input"`
	Config string `json:"config"`
	Msg    string `json:"msg"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: [%s] %s: %s", v.Input, v.Prop, v.Config, v.Msg)
}

// Report is the verification outcome for one input.
type Report struct {
	Input string `json:"input"`
	// Props lists the property ids that ran, in execution order.
	Props []string `json:"props"`
	// Checks counts individual assertions evaluated.
	Checks int `json:"checks"`
	// Violations lists every failed assertion, in a deterministic order.
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every assertion held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Render writes the report in tfcheck's text format.
func (r *Report) Render(w io.Writer) {
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	fmt.Fprintf(w, "%-28s %6d checks  [%s]  %s\n", r.Input, r.Checks, strings.Join(r.Props, ","), status)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %s: %s: %s\n", v.Prop, v.Config, v.Msg)
	}
}

// Property is one machine-checked invariant of the analyzer.
type Property struct {
	id, desc string
	check    func(*ctx)
}

// ID returns the property's selector id (the -props name).
func (p Property) ID() string { return p.id }

// Desc returns the one-line description shown by tfcheck -list.
func (p Property) Desc() string { return p.desc }

// Properties returns the full catalog in execution order.
func Properties() []Property { return properties }

// selectProps resolves the ids in order, defaulting to all.
func selectProps(ids []string) ([]Property, error) {
	if len(ids) == 0 {
		return properties, nil
	}
	var out []Property
	for _, id := range ids {
		id = strings.TrimSpace(id)
		found := false
		for _, p := range properties {
			if p.id == id {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("check: unknown property %q (see Properties)", id)
		}
	}
	return out, nil
}

// ctx carries one input through a verification run: the trace, the resolved
// options, a memoized report per matrix cell, and the violation sink.
type ctx struct {
	name string
	tr   *trace.Trace
	opts Options
	// sess is the run's session; it replays the matrix unless Analyze is
	// overridden, and always supplies the trace's DCFGs.
	sess    *core.Session
	analyze AnalyzeFunc
	reports pool.Memo[Cell, *core.Report]
	rep     *Report
	prop    string
}

// report returns the analyzer's output for one matrix cell, computing and
// memoizing it on first use so properties share cells.
func (c *ctx) report(cl Cell) (*core.Report, error) {
	return c.reports.Get(cl, func() (*core.Report, error) {
		return c.analyze(c.tr, core.Options{
			WarpSize:              cl.WarpSize,
			Formation:             cl.Formation,
			EmulateLocks:          cl.Locks,
			Parallelism:           cl.Parallelism,
			DisableLockstepFusion: cl.NoFusion,
		})
	})
}

// mustReport is report with analyzer failures converted into violations;
// the bool reports usability.
func (c *ctx) mustReport(cl Cell) (*core.Report, bool) {
	r, err := c.report(cl)
	c.check()
	if err != nil {
		c.violatef(cl, "analyze failed: %v", err)
		return nil, false
	}
	return r, true
}

// check counts one evaluated assertion.
func (c *ctx) check() { c.rep.Checks++ }

// assert counts an assertion and records a violation when cond is false.
func (c *ctx) assert(cl Cell, cond bool, format string, args ...any) {
	c.check()
	if !cond {
		c.violatef(cl, format, args...)
	}
}

func (c *ctx) violatef(cl Cell, format string, args ...any) {
	c.rep.Violations = append(c.rep.Violations, Violation{
		Prop:   c.prop,
		Input:  c.name,
		Config: cl.String(),
		Msg:    fmt.Sprintf(format, args...),
	})
}

// baseCells enumerates the serial (parallelism 1) matrix cells: every warp
// width × formation × lock mode.
func (c *ctx) baseCells() []Cell {
	var out []Cell
	for _, w := range c.opts.WarpSizes {
		for _, f := range c.opts.Formations {
			for _, locks := range []bool{false, true} {
				out = append(out, Cell{WarpSize: w, Parallelism: 1, Formation: f, Locks: locks})
			}
		}
	}
	return out
}

// Run verifies one trace under the options' configuration matrix. The
// returned error covers only invalid options; failed invariants are
// violations in the Report.
func Run(name string, tr *trace.Trace, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	props, err := selectProps(opts.Props)
	if err != nil {
		return nil, err
	}
	for _, w := range opts.WarpSizes {
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("check: warp size %d out of range [1,64]", w)
		}
	}
	for _, p := range opts.Parallelism {
		if p < 0 {
			return nil, fmt.Errorf("check: negative parallelism %d", p)
		}
	}
	sess := core.NewSession()
	analyze := opts.Analyze
	if analyze == nil {
		sess.SetCache(opts.Cache)
		analyze = sess.Analyze
	}
	if opts.Context != nil {
		// Inject cancellation at the single point every matrix cell passes
		// through, so no cell-construction site needs to know about it.
		inner := analyze
		cctx := opts.Context
		analyze = func(tr *trace.Trace, o core.Options) (*core.Report, error) {
			o.Context = cctx
			return inner(tr, o)
		}
	}
	c := &ctx{
		name:    name,
		tr:      tr,
		opts:    opts,
		sess:    sess,
		analyze: analyze,
		rep:     &Report{Input: name},
	}
	for _, p := range props {
		c.prop = p.id
		c.rep.Props = append(c.rep.Props, p.id)
		p.check(c)
	}
	sortViolations(c.rep.Violations)
	return c.rep, nil
}

// sortViolations imposes the deterministic report order: property (catalog
// order), then config, then message.
func sortViolations(vs []Violation) {
	rank := make(map[string]int, len(properties))
	for i, p := range properties {
		rank[p.id] = i
	}
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].Prop != vs[j].Prop {
			return rank[vs[i].Prop] < rank[vs[j].Prop]
		}
		if vs[i].Config != vs[j].Config {
			return vs[i].Config < vs[j].Config
		}
		return vs[i].Msg < vs[j].Msg
	})
}
