package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/opt"
	"threadfuser/internal/warp"
)

// The request format: each endpoint's encoder, which Client calls, sits
// next to the decoder its handler calls. A decoder applies the default of
// a missing or empty parameter (README.md lists them) and rejects a
// malformed one. An encoder leaves out a field whose zero value means
// "the default" on the local path, so the server's default applies too.

// analyzeQuery encodes the core options /v1/analyze reads. Warp size 0
// is sent: core rejects it locally, and the server answers it with 400.
func analyzeQuery(o core.Options) url.Values {
	return url.Values{
		"warp":      {strconv.Itoa(o.WarpSize)},
		"formation": {o.Formation.String()},
		"locks":     {strconv.FormatBool(o.EmulateLocks)},
	}
}

// decodeAnalyze reads /v1/analyze's parameters over core.Defaults.
func decodeAnalyze(q url.Values) (core.Options, error) {
	opts := core.Defaults()
	ws, err := queryInt(q, "warp", opts.WarpSize)
	if err != nil {
		return opts, err
	}
	if ws < 1 {
		return opts, fmt.Errorf("parameter warp: %d is not a positive warp size", ws)
	}
	opts.WarpSize = ws
	if name := q.Get("formation"); name != "" {
		if opts.Formation, err = warp.ParseFormation(name); err != nil {
			return opts, err
		}
	}
	if opts.EmulateLocks, err = queryBool(q, "locks"); err != nil {
		return opts, err
	}
	return opts, nil
}

// lintQuery encodes the analysis options /v1/lint reads. Warp size 0 is
// left out: analysis reads it as the default warp, as the server does.
func lintQuery(o analysis.Options) url.Values {
	q := analyzeQuery(core.Options{WarpSize: o.WarpSize, Formation: o.Formation})
	if o.WarpSize == 0 {
		q.Del("warp")
	}
	q.Set("min", o.MinSeverity.String())
	q.Set("passes", strings.Join(o.Passes, ","))
	return q
}

// decodeLint reads /v1/lint's parameters. The replay parameters are
// analyze's and are checked the same way; lint ignores locks.
func decodeLint(q url.Values) (analysis.Options, error) {
	copts, err := decodeAnalyze(q)
	if err != nil {
		return analysis.Options{}, err
	}
	opts := analysis.Options{WarpSize: copts.WarpSize, Formation: copts.Formation}
	if m := q.Get("min"); m != "" {
		if opts.MinSeverity, err = analysis.ParseSeverity(m); err != nil {
			return opts, err
		}
	}
	opts.Passes = splitList(q.Get("passes"))
	return opts, nil
}

// checkQuery encodes the check options /v1/check reads, and the name the
// report carries. An empty list stands for the check default.
func checkQuery(name string, o check.Options) url.Values {
	return url.Values{
		"name":       {name},
		"warps":      {joinList(o.WarpSizes, strconv.Itoa)},
		"parallel":   {joinList(o.Parallelism, strconv.Itoa)},
		"formations": {joinList(o.Formations, warp.Formation.String)},
		"props":      {strings.Join(o.Props, ",")},
	}
}

// decodeCheck reads /v1/check's parameters.
func decodeCheck(q url.Values) (name string, opts check.Options, err error) {
	if opts.WarpSizes, err = splitInts(q.Get("warps")); err != nil {
		return "", opts, fmt.Errorf("parameter warps: %v", err)
	}
	if opts.Parallelism, err = splitInts(q.Get("parallel")); err != nil {
		return "", opts, fmt.Errorf("parameter parallel: %v", err)
	}
	for _, fname := range splitList(q.Get("formations")) {
		f, err := warp.ParseFormation(fname)
		if err != nil {
			return "", opts, err
		}
		opts.Formations = append(opts.Formations, f)
	}
	opts.Props = splitList(q.Get("props"))
	if name = q.Get("name"); name == "" {
		name = "upload"
	}
	return name, opts, nil
}

// StaticRequest is a /v1/static request: one static oracle over a bundled
// workload's program. Every field is sent as set: the zero Opt is O0 and
// the zero Seed is 0, not the O1 and 1 a query without them defaults to.
type StaticRequest struct {
	// Workload names the bundled workload.
	Workload string
	// Mode is the oracle's analysis.Oracle mode: simt, locks or mem
	// ("" = simt).
	Mode string
	// Opt is the optimization level the program is analyzed at.
	Opt opt.Level
	// Threads and Seed instantiate the workload (0 threads = its default).
	Threads int
	Seed    int64
	// Budget is the uniformity oracle's meld budget (0 = the O3 budget).
	Budget int
}

// mode is the oracle mode the request selects.
func (r StaticRequest) mode() string {
	if r.Mode == "" {
		return "simt"
	}
	return r.Mode
}

// query encodes the request; an empty mode is left out, so the server's
// default mode applies.
func (r StaticRequest) query() url.Values {
	q := url.Values{
		"workload": {r.Workload},
		"opt":      {r.Opt.String()},
		"threads":  {strconv.Itoa(r.Threads)},
		"seed":     {strconv.FormatInt(r.Seed, 10)},
		"budget":   {strconv.Itoa(r.Budget)},
	}
	if r.Mode != "" {
		q.Set("mode", r.Mode)
	}
	return q
}

// decodeStatic reads /v1/static's parameters. It checks the mode and the
// budget against the oracle registry but leaves the workload to the
// handler, which answers an unknown one with 404.
func decodeStatic(q url.Values) (StaticRequest, error) {
	r := StaticRequest{Workload: q.Get("workload"), Mode: q.Get("mode"), Opt: opt.O1}
	r.Mode = r.mode()
	var err error
	if level := q.Get("opt"); level != "" {
		if r.Opt, err = opt.ParseLevel(level); err != nil {
			return r, fmt.Errorf("parameter opt: %v", err)
		}
	}
	if r.Threads, err = queryInt(q, "threads", 0); err != nil {
		return r, err
	}
	seed, err := queryInt(q, "seed", 1)
	if err != nil {
		return r, err
	}
	r.Seed = int64(seed)
	if r.Budget, err = queryInt(q, "budget", 0); err != nil {
		return r, err
	}
	_, err = analysis.StaticOracle(r.Mode, r.Budget)
	return r, err
}

// queryInt parses an optional integer query parameter.
func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %q is not an integer", name, v)
	}
	return n, nil
}

// queryBool parses an optional boolean query parameter.
func queryBool(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("parameter %s: %q is not a boolean", name, v)
	}
	return b, nil
}

// joinList encodes a list parameter.
func joinList[T any](xs []T, str func(T) string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = str(x)
	}
	return strings.Join(parts, ",")
}

// splitList splits a comma-separated parameter, dropping empty elements.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitInts splits a comma-separated list of integers.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}
