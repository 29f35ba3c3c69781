package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/opt"
	"threadfuser/internal/staticlock"
	"threadfuser/internal/staticmem"
	"threadfuser/internal/staticsimt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

// spoolTrace drains the request body to a spool file and decodes it through
// the indexed reader path (which transparently falls back for v1/v2
// streams). The spool file is removed before returning: the decoded trace
// is fully in memory and nothing on disk outlives the request. The returned
// status is the HTTP code to fail with when err != nil.
func (s *Server) spoolTrace(w http.ResponseWriter, r *http.Request) (*trace.Trace, int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	f, err := os.CreateTemp(s.cfg.SpoolDir, "tfserve-spool-*.tft")
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("creating spool file: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	n, err := io.Copy(f, body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds %d-byte limit", maxErr.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err)
	}
	if cl := r.ContentLength; cl >= 0 && cl != n {
		return nil, http.StatusBadRequest,
			fmt.Errorf("upload truncated: Content-Length %d, body %d bytes", cl, n)
	}
	tr, err := trace.DecodeStrict(f, n, s.cfg.DecodeParallelism)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding trace: %w", err)
	}
	return tr, 0, nil
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

// coreOptions builds the analyzer configuration shared by the analyze and
// lint endpoints from query parameters.
func (s *Server) coreOptions(q url.Values) (core.Options, error) {
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
	opts.Parallelism = s.cfg.ReplayParallelism
	return opts, nil
}

// handleAnalyze serves POST /v1/analyze: a .tft body in, a core.Report out.
// Parameters: warp, formation, locks, tenant.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	opts, err := s.coreOptions(r.URL.Query())
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr, status, err := s.spoolTrace(w, r)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, status, "%v", err)
		return
	}
	// The dedup key is the content-addressed cache key: trace digest plus
	// the semantic options — exactly the identity under which two requests
	// are guaranteed the same report. The job runs on the same session, so
	// its cache lookup reuses the digest instead of hashing the upload again.
	sess := core.NewSession()
	sess.SetCache(s.cfg.Cache)
	key, err := sess.CacheKey(tr, opts)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.serveFlight(ctx, w, "analyze\x00"+key, func(jctx context.Context) *outcome {
		return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
			o := opts
			o.Context = jctx
			return sess.AnalyzeCached(tr, o)
		})
	})
}

// handleLint serves POST /v1/lint: a .tft body in, an analysis.Report out.
// Parameters: warp, formation, min (severity), passes (comma-separated),
// tenant.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	copts, err := s.coreOptions(q)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := analysis.Options{
		WarpSize:    copts.WarpSize,
		Formation:   copts.Formation,
		Parallelism: s.cfg.ReplayParallelism,
		Cache:       s.cfg.Cache,
	}
	if m := q.Get("min"); m != "" {
		if opts.MinSeverity, err = analysis.ParseSeverity(m); err != nil {
			s.stats.clientErrors.Add(1)
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if p := q.Get("passes"); p != "" {
		opts.Passes = splitList(p)
	}
	tr, status, err := s.spoolTrace(w, r)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, status, "%v", err)
		return
	}
	// The dedup key extends the cache key of the replay the passes share;
	// the job runs on the same session, so the upload is hashed once.
	sess := core.NewSession()
	ck, err := sess.CacheKey(tr, core.Options{WarpSize: opts.WarpSize, Formation: opts.Formation})
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	key := fmt.Sprintf("lint\x00%s\x00min=%d passes=%s", ck, opts.MinSeverity, strings.Join(opts.Passes, ","))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.serveFlight(ctx, w, key, func(jctx context.Context) *outcome {
		return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
			o := opts
			o.Context = jctx
			rep, err := analysis.RunSession(sess, tr, o)
			return rep, false, err
		})
	})
}

// handleCheck serves POST /v1/check: a .tft body in, a check.Report out.
// Parameters: warps (comma list), parallel (comma list), formations (comma
// list), props (comma list), tenant.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	var opts check.Options
	var err error
	if opts.WarpSizes, err = splitInts(q.Get("warps")); err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "parameter warps: %v", err)
		return
	}
	if opts.Parallelism, err = splitInts(q.Get("parallel")); err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "parameter parallel: %v", err)
		return
	}
	for _, name := range splitList(q.Get("formations")) {
		f, err := warp.ParseFormation(name)
		if err != nil {
			s.stats.clientErrors.Add(1)
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		opts.Formations = append(opts.Formations, f)
	}
	opts.Props = splitList(q.Get("props"))
	tr, status, err := s.spoolTrace(w, r)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, status, "%v", err)
		return
	}
	// The cache key at zero options stands for the trace digest; the matrix
	// replays run on the same session, so the upload is hashed once.
	sess := core.NewSession()
	sess.SetCache(s.cfg.Cache)
	opts.Analyze = sess.Analyze
	ck, err := sess.CacheKey(tr, core.Options{})
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	key := fmt.Sprintf("check\x00%s\x00warps=%v par=%v form=%v props=%s",
		ck, opts.WarpSizes, opts.Parallelism, opts.Formations, strings.Join(opts.Props, ","))
	name := q.Get("name")
	if name == "" {
		name = "upload"
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.serveFlight(ctx, w, key, func(jctx context.Context) *outcome {
		return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
			o := opts
			o.Context = jctx
			rep, err := check.Run(name, tr, o)
			return rep, false, err
		})
	})
}

// StaticReport is the GET /v1/static payload: one static oracle result
// for a bundled workload's program.
type StaticReport struct {
	Workload string             `json:"workload"`
	Opt      string             `json:"opt"`
	SIMT     *staticsimt.Result `json:"simt,omitempty"`
	Locks    *staticlock.Result `json:"locks,omitempty"`
	Mem      *staticmem.Result  `json:"mem,omitempty"`
}

// handleStatic serves GET /v1/static?workload=NAME: static analyses need
// the program's IR, which trace uploads don't carry, so this endpoint runs
// over the bundled workloads by name. Parameters: workload (required; see
// /v1/static with none for the list), mode (simt|locks|mem, default simt),
// opt (O0..O3, default O1), threads, seed, budget.
func (s *Server) handleStatic(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	name := q.Get("workload")
	if name == "" {
		var names []string
		for _, wl := range workloads.All() {
			names = append(names, wl.Name)
		}
		sort.Strings(names)
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "parameter workload required; available: %s",
			strings.Join(names, ", "))
		return
	}
	wl, err := workloads.ByName(name)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	mode := q.Get("mode")
	if mode == "" {
		mode = "simt"
	}
	var modes []string
	known := false
	for _, o := range analysis.Oracles() {
		modes = append(modes, o.Mode)
		known = known || o.Mode == mode
	}
	if !known {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "parameter mode: %q (want one of %s)", mode, strings.Join(modes, ", "))
		return
	}
	level := q.Get("opt")
	if level == "" {
		level = "O1"
	}
	lvl, err := opt.ParseLevel(level)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "parameter opt: %v", err)
		return
	}
	threads, err := queryInt(q, "threads", 0)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	seed, err := queryInt(q, "seed", 1)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := queryInt(q, "budget", 0)
	if err != nil {
		s.stats.clientErrors.Add(1)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := fmt.Sprintf("static\x00%s\x00mode=%s opt=%s threads=%d seed=%d budget=%d",
		name, mode, lvl, threads, seed, budget)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.serveFlight(ctx, w, key, func(jctx context.Context) *outcome {
		return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
			inst, err := wl.Instantiate(workloads.Config{Threads: threads, Seed: int64(seed)})
			if err != nil {
				return nil, false, err
			}
			prog := inst.Prog
			if lvl != opt.O1 {
				prog = opt.Apply(prog, lvl)
			}
			resp := &StaticReport{Workload: wl.Name, Opt: lvl.String()}
			switch mode {
			case "locks":
				resp.Locks = staticlock.Analyze(prog)
			case "mem":
				resp.Mem = staticmem.Analyze(prog)
			default:
				sopts := staticsimt.Options{}
				if budget > 0 {
					sopts.MeldBudget = budget
				}
				resp.SIMT = staticsimt.Analyze(prog, sopts)
			}
			return resp, false, nil
		})
	})
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
