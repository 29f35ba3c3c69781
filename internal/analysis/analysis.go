// Package analysis is ThreadFuser's diagnosis layer: a pass-manager-driven
// engine that runs an ordered set of analyses over a prepared trace and
// emits structured findings instead of metrics. Where internal/core answers
// "how efficiently would this program run under SIMT semantics", this
// package answers "what, concretely, should the developer change before
// porting it" — the lockset race detector surfaces data races the SIMT
// serialization model would silently mask, the divergence lint ranks the
// divergent regions worth restructuring (and flags DARM-style meldable
// diamonds), the lock lint localizes serialization cost and leaked
// acquisitions, and the trace sanitizer validates the input stream itself.
//
// Passes share one core.Session, so the memoized DCFG/IPDOM products and
// warp formations are built once per trace no matter how many passes (or
// replay configurations) consume them.
package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"threadfuser/internal/cfg"
	"threadfuser/internal/core"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/ir"
	"threadfuser/internal/pool"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// Severity ranks findings. The zero value is SevInfo so accidental zero
// findings sort last, not first.
type Severity int

const (
	// SevInfo marks opportunities (a meldable diamond, a modest divergent
	// region) that are worth knowing but block nothing.
	SevInfo Severity = iota
	// SevWarning marks likely defects or dominant costs (leak paths,
	// lock-order inversions, heavy serialization).
	SevWarning
	// SevError marks definite defects: data races, runtime lock leaks, and
	// structurally invalid traces.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes severities by name so JSON reports are readable and
// round-trip exactly.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the names MarshalJSON produces.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = sev
	return nil
}

// ParseSeverity parses "info", "warning"/"warn" or "error".
func ParseSeverity(name string) (Severity, error) {
	switch strings.ToLower(name) {
	case "info":
		return SevInfo, nil
	case "warning", "warn":
		return SevWarning, nil
	case "error":
		return SevError, nil
	}
	return 0, fmt.Errorf("analysis: unknown severity %q (want info, warning or error)", name)
}

// Finding is one diagnostic emitted by a pass. Location fields that do not
// apply hold -1 (Block, Thread, Record) or are empty (Function, Addr,
// Threads); Details carries pass-specific machine-readable values.
type Finding struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	// Function/Block locate the finding on the DCFG; Thread/Record locate
	// it in the trace stream; Addr names the memory or lock word involved.
	Function string            `json:"function,omitempty"`
	Block    int32             `json:"block"`
	Thread   int               `json:"thread"`
	Threads  []int             `json:"threads,omitempty"`
	Record   int               `json:"record"`
	Addr     uint64            `json:"addr,omitempty"`
	Message  string            `json:"message"`
	Details  map[string]string `json:"details,omitempty"`
}

// finding returns a Finding with every location field marked not-applicable.
func finding(pass string, sev Severity) Finding {
	return Finding{Pass: pass, Severity: sev, Block: -1, Thread: -1, Record: -1}
}

// Location renders the most specific position the finding carries, or "".
func (f *Finding) Location() string {
	switch {
	case f.Function != "" && f.Block >= 0:
		return fmt.Sprintf("%s.b%d", f.Function, f.Block)
	case f.Function != "":
		return f.Function
	case f.Thread >= 0 && f.Record >= 0:
		return fmt.Sprintf("thread %d record %d", f.Thread, f.Record)
	case f.Thread >= 0:
		return fmt.Sprintf("thread %d", f.Thread)
	}
	return ""
}

// Pass is one analysis. Run reports problems through the context; an error
// return means the pass itself could not complete (it is surfaced as an
// error-severity finding, not a process failure).
type Pass interface {
	ID() string
	Desc() string
	Run(ctx *Context) error
}

// Passes returns the engine's passes in their fixed execution order. The
// sanitizer always runs first: its error findings gate the structural
// passes, which assume a well-formed trace. The static oracle passes (one
// per Oracles entry) additionally require Options.Prog and are skipped for
// trace-only inputs.
func Passes() []Pass {
	ps := []Pass{sanitizePass{}, locksetPass{}, divergencePass{}, lockLintPass{}, deadlockPass{}}
	for i := range oracles {
		ps = append(ps, oraclePass{&oracles[i]})
	}
	return ps
}

// Options configure a lint run.
type Options struct {
	// WarpSize is the modelled SIMD width (default 32).
	WarpSize int
	// Formation selects the thread-batching algorithm.
	Formation warp.Formation
	// Parallelism bounds the worker pools (replay workers and per-function
	// pass fan-out): 0 means one per core, 1 forces serial execution.
	// Findings are identical at every setting.
	Parallelism int
	// Passes selects a subset of pass ids to run (nil/empty = all).
	Passes []string
	// MinSeverity drops findings below the threshold from the report.
	MinSeverity Severity
	// Prog attaches the traced program's IR, enabling the static oracle
	// passes (static-oracle-vs-replay comparison). Nil disables them:
	// trace-only inputs have no IR to analyze.
	Prog *ir.Program
	// Context, if non-nil, cancels the replays the passes request; the
	// analysis service threads request timeouts through it. Findings of a
	// run that completes are unaffected.
	Context context.Context
}

// Context is the shared state passes run against.
type Context struct {
	Trace *trace.Trace
	// Graphs/PDoms are the session's memoized DCFG and post-dominator
	// products. They are nil while the sanitizer runs (it must not assume a
	// buildable trace) and set before any structural pass.
	Graphs map[uint32]*cfg.DCFG
	PDoms  map[uint32]*ipdom.PostDom
	Opts   Options

	sess    *core.Session
	reports pool.Memo[bool, *core.Report] // keyed by lock emulation
	// mu guards findings and funcIDs.
	mu       sync.Mutex
	findings []Finding
	funcIDs  map[string]uint32
}

// add appends one finding; safe for concurrent use from pass worker pools.
func (c *Context) add(f Finding) {
	c.mu.Lock()
	c.findings = append(c.findings, f)
	c.mu.Unlock()
}

// Report returns the trace's replay report with or without lock emulation,
// memoized so the two replays happen at most once across all passes.
func (c *Context) Report(emulateLocks bool) (*core.Report, error) {
	return c.reports.Get(emulateLocks, func() (*core.Report, error) {
		opts := core.Defaults()
		opts.WarpSize = c.Opts.WarpSize
		opts.Formation = c.Opts.Formation
		opts.Parallelism = c.Opts.Parallelism
		opts.EmulateLocks = emulateLocks
		opts.Context = c.Opts.Context
		return c.sess.Analyze(c.Trace, opts)
	})
}

// funcID resolves a function name back to its symbol-table id (first
// occurrence wins, matching core.Report's name index).
func (c *Context) funcID(name string) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.funcIDs == nil {
		c.funcIDs = make(map[string]uint32, len(c.Trace.Funcs))
		for id := range c.Trace.Funcs {
			if _, dup := c.funcIDs[c.Trace.Funcs[id].Name]; !dup {
				c.funcIDs[c.Trace.Funcs[id].Name] = uint32(id)
			}
		}
	}
	id, ok := c.funcIDs[name]
	return id, ok
}

// Report is the engine's output for one trace.
type Report struct {
	Program  string `json:"program"`
	WarpSize int    `json:"warp_size"`
	// Findings is sorted by severity (errors first), then pass id and
	// location, so output is deterministic at every parallelism setting.
	Findings []Finding `json:"findings"`
	// SkippedPasses lists passes that did not run and why (a trace that
	// fails sanitization skips every structural pass).
	SkippedPasses []string `json:"skipped_passes,omitempty"`
	Errors        int      `json:"errors"`
	Warnings      int      `json:"warnings"`
	Infos         int      `json:"infos"`
}

// CountAtLeast returns the number of findings at or above the severity.
func (r *Report) CountAtLeast(min Severity) int {
	n := 0
	for i := range r.Findings {
		if r.Findings[i].Severity >= min {
			n++
		}
	}
	return n
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (warp %d): %d error(s), %d warning(s), %d info\n",
		r.Program, r.WarpSize, r.Errors, r.Warnings, r.Infos)
	for i := range r.Findings {
		f := &r.Findings[i]
		loc := f.Location()
		if loc != "" {
			loc = " " + loc
		}
		fmt.Fprintf(w, "  %-7s [%s]%s: %s\n", strings.ToUpper(f.Severity.String()), f.Pass, loc, f.Message)
	}
	for _, s := range r.SkippedPasses {
		fmt.Fprintf(w, "  skipped %s\n", s)
	}
}

// Run lints one trace with a fresh session.
func Run(t *trace.Trace, opts Options) (*Report, error) {
	return RunSession(core.NewSession(), t, opts)
}

// RunSession lints one trace, reusing the session's memoized preparation
// and warp formations; the replays the passes request go through the report
// cache attached to the session, if any (Session.SetCache), which findings
// never depend on. The returned error covers only engine misuse (bad
// options); problems with the trace itself become findings.
func RunSession(sess *core.Session, t *trace.Trace, opts Options) (*Report, error) {
	if opts.WarpSize == 0 {
		opts.WarpSize = 32
	}
	if opts.WarpSize < 1 || opts.WarpSize > simt.MaxWarpSize {
		return nil, fmt.Errorf("analysis: warp size %d out of range 1..%d", opts.WarpSize, simt.MaxWarpSize)
	}
	all := Passes()
	selected := make(map[string]bool, len(all))
	if len(opts.Passes) == 0 {
		for _, p := range all {
			selected[p.ID()] = true
		}
	} else {
		known := make(map[string]bool, len(all))
		for _, p := range all {
			known[p.ID()] = true
		}
		for _, id := range opts.Passes {
			if !known[id] {
				return nil, fmt.Errorf("analysis: unknown pass %q", id)
			}
			selected[id] = true
		}
	}

	ctx := &Context{Trace: t, Opts: opts, sess: sess}

	// The sanitizer always executes, selected or not: its error findings
	// decide whether the structural passes can trust the trace.
	mark := 0
	if err := (sanitizePass{}).Run(ctx); err != nil {
		return nil, err
	}
	structuralErrs := 0
	for i := range ctx.findings {
		if ctx.findings[i].Severity == SevError {
			structuralErrs++
		}
	}
	if !selected[(sanitizePass{}).ID()] {
		ctx.findings = ctx.findings[:mark]
	}

	var skipped []string
	runStructural := func(reason string) {
		for _, p := range all[1:] {
			if selected[p.ID()] {
				skipped = append(skipped, fmt.Sprintf("%s: %s", p.ID(), reason))
			}
		}
	}
	if structuralErrs > 0 {
		runStructural("trace failed sanitization")
	} else {
		graphs, pdoms, err := sess.Prepared(t)
		if err != nil {
			// The sanitizer should subsume every preparation invariant;
			// degrade gracefully if it ever misses one.
			f := finding("sanitize", SevError)
			f.Message = fmt.Sprintf("trace preparation failed: %v", err)
			ctx.add(f)
			runStructural("trace preparation failed")
		} else {
			ctx.Graphs, ctx.PDoms = graphs, pdoms
			for _, p := range all[1:] {
				if !selected[p.ID()] {
					continue
				}
				if _, static := p.(oraclePass); static && opts.Prog == nil {
					// Only surface the skip when the pass was asked for by
					// name; an all-passes run over a trace-only input just
					// omits it silently.
					if len(opts.Passes) > 0 {
						skipped = append(skipped, p.ID()+": no program attached (trace-only input)")
					}
					continue
				}
				if err := p.Run(ctx); err != nil {
					f := finding(p.ID(), SevError)
					f.Message = fmt.Sprintf("pass failed: %v", err)
					ctx.add(f)
				}
			}
		}
	}

	rep := &Report{Program: t.Program, WarpSize: opts.WarpSize, SkippedPasses: skipped}
	for i := range ctx.findings {
		f := ctx.findings[i]
		if f.Severity < opts.MinSeverity {
			continue
		}
		rep.Findings = append(rep.Findings, f)
		switch f.Severity {
		case SevError:
			rep.Errors++
		case SevWarning:
			rep.Warnings++
		default:
			rep.Infos++
		}
	}
	sortFindings(rep.Findings)
	return rep, nil
}

// sortFindings imposes the total order that makes reports deterministic
// regardless of the concurrency findings were produced under.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Record != b.Record {
			return a.Record < b.Record
		}
		return a.Message < b.Message
	})
}
