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
	"strings"
	"time"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
	"threadfuser/internal/workloads"
)

// readUpload reads the request body into one buffer and hands it to sess
// as an Upload, which keys a canonical body from its bytes and decodes
// anything else now (see core.Upload). A declared Content-Length sizes the
// buffer exactly, and one over MaxUploadBytes is refused before a byte is
// read; a chunked body is read whole under the same cap. The read must end
// by deadline: a client that stalls mid-body gets 408 instead of holding
// its admission and tenant slots. The returned status is the HTTP code to
// fail with when err != nil.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request, sess *core.Session, deadline time.Time) (*core.Upload, int, error) {
	limit := s.cfg.MaxUploadBytes
	if r.ContentLength > limit {
		w.Header().Set("Connection", "close")
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("upload exceeds %d-byte limit", limit)
	}
	// A writer without read deadlines (a test recorder answers
	// ErrNotSupported) reads without one.
	rc := http.NewResponseController(w)
	deadlineSet := rc.SetReadDeadline(deadline) == nil
	data, n, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &maxErr):
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds %d-byte limit", maxErr.Limit)
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The rest of the body is never read: close the connection
			// rather than parse it as the next request.
			w.Header().Set("Connection", "close")
			return nil, http.StatusRequestTimeout,
				fmt.Errorf("reading upload: not received within the %v request deadline", s.cfg.RequestTimeout)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err)
	}
	if deadlineSet {
		// The job runs under its context's deadline; the connection's next
		// read (net/http's wait for the client to go away) must not expire.
		rc.SetReadDeadline(time.Time{})
	}
	if cl := r.ContentLength; cl >= 0 && cl != n {
		return nil, http.StatusBadRequest,
			fmt.Errorf("upload truncated: Content-Length %d, body %d bytes", cl, n)
	}
	u, err := sess.Upload(data, s.cfg.DecodeParallelism)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding trace: %w", err)
	}
	return u, 0, nil
}

// readBody reads body whole. With a declared length cl >= 0 it reads into
// one buffer of exactly cl bytes and returns it with the number of bytes
// the body held, which differs from cl when the body ended early or, for a
// handler driven directly rather than by net/http (which stops a body at
// its declared length), ran on past it. A chunked body (cl < 0) is read by
// io.ReadAll.
func readBody(body io.Reader, cl int64) ([]byte, int64, error) {
	if cl < 0 {
		data, err := io.ReadAll(body)
		return data, int64(len(data)), err
	}
	data := make([]byte, cl)
	n := 0
	for n < len(data) {
		m, err := body.Read(data[n:])
		n += m
		if err == io.EOF {
			return data[:n], int64(n), nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
	extra, err := io.Copy(io.Discard, body)
	return data, cl + extra, err
}

// uploadJob is one trace-upload endpoint's part of serveUpload: the core
// options the request's cache key is computed under, the suffix that makes
// the dedup key specific to the endpoint's remaining options, and the job.
type uploadJob struct {
	keyOpts core.Options
	suffix  string
	run     func(ctx context.Context, sess *core.Session, u *core.Upload) (res any, cacheHit bool, err error)
}

// serveUpload is the request path the trace-upload endpoints share: count,
// admit, decode the options (before the body is read), read and key the
// upload, and serve the job through its flight. The request deadline starts
// before the body is read, so it bounds the read and the job together. The
// dedup key extends the content-addressed cache key, so two requests share
// a flight exactly when they are guaranteed the same report; the job runs
// on the same session and upload, so the body is hashed once and decoded at
// most once.
func (s *Server) serveUpload(endpoint string, decode func(url.Values) (*uploadJob, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		job, err := decode(r.URL.Query())
		if err != nil {
			s.failRequest(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		deadline, _ := ctx.Deadline()
		sess := core.NewSession()
		sess.SetCache(s.cfg.Cache)
		u, status, err := s.readUpload(w, r, sess, deadline)
		if err != nil {
			s.failRequest(w, status, "%v", err)
			return
		}
		s.serveFlight(ctx, w, endpoint+"\x00"+u.CacheKey(job.keyOpts)+job.suffix, func(jctx context.Context) *outcome {
			return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
				return job.run(jctx, sess, u)
			})
		})
	}
}

// analyzeJob is POST /v1/analyze: a .tft body in, a core.Report out.
func (s *Server) analyzeJob(q url.Values) (*uploadJob, error) {
	opts, err := decodeAnalyze(q)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = s.cfg.ReplayParallelism
	return &uploadJob{keyOpts: opts, run: func(ctx context.Context, _ *core.Session, u *core.Upload) (any, bool, error) {
		o := opts
		o.Context = ctx
		return u.AnalyzeCached(o)
	}}, nil
}

// lintJob is POST /v1/lint: a .tft body in, an analysis.Report out. The
// cache key is that of the replay the passes share.
func (s *Server) lintJob(q url.Values) (*uploadJob, error) {
	opts, err := decodeLint(q)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = s.cfg.ReplayParallelism
	opts.Cache = s.cfg.Cache
	return &uploadJob{
		keyOpts: core.Options{WarpSize: opts.WarpSize, Formation: opts.Formation},
		suffix:  fmt.Sprintf("\x00min=%d passes=%s", opts.MinSeverity, strings.Join(opts.Passes, ",")),
		run: func(ctx context.Context, sess *core.Session, u *core.Upload) (any, bool, error) {
			tr, err := u.Trace()
			if err != nil {
				return nil, false, err
			}
			o := opts
			o.Context = ctx
			rep, err := analysis.RunSession(sess, tr, o)
			return rep, false, err
		},
	}, nil
}

// checkJob is POST /v1/check: a .tft body in, a check.Report out. The cache
// key at zero options stands for the trace digest; the matrix replays run
// on the request's session.
func (s *Server) checkJob(q url.Values) (*uploadJob, error) {
	name, opts, err := decodeCheck(q)
	if err != nil {
		return nil, err
	}
	return &uploadJob{
		suffix: fmt.Sprintf("\x00warps=%v par=%v form=%v props=%s",
			opts.WarpSizes, opts.Parallelism, opts.Formations, strings.Join(opts.Props, ",")),
		run: func(ctx context.Context, sess *core.Session, u *core.Upload) (any, bool, error) {
			tr, err := u.Trace()
			if err != nil {
				return nil, false, err
			}
			o := opts
			o.Context = ctx
			o.Analyze = sess.Analyze
			rep, err := check.Run(name, tr, o)
			return rep, false, err
		},
	}, nil
}

// StaticReport is the GET /v1/static payload: one static oracle result
// for a bundled workload's program.
type StaticReport struct {
	Workload string `json:"workload"`
	Opt      string `json:"opt"`
	analysis.StaticResult
}

// handleStatic serves GET /v1/static?workload=NAME: static analyses need
// the program's IR, which trace uploads don't carry, so this endpoint runs
// over the bundled workloads by name (see decodeStatic for the parameters).
func (s *Server) handleStatic(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, err := decodeStatic(r.URL.Query())
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Workload == "" {
		var names []string
		for _, wl := range workloads.All() {
			names = append(names, wl.Name)
		}
		sort.Strings(names)
		s.failRequest(w, http.StatusBadRequest, "parameter workload required; available: %s",
			strings.Join(names, ", "))
		return
	}
	wl, err := workloads.ByName(req.Workload)
	if err != nil {
		s.failRequest(w, http.StatusNotFound, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	s.serveFlight(ctx, w, fmt.Sprintf("static\x00%+v", req), func(jctx context.Context) *outcome {
		return s.runJob(jctx, func(jctx context.Context) (any, bool, error) {
			inst, err := wl.Instantiate(workloads.Config{Threads: req.Threads, Seed: req.Seed})
			if err != nil {
				return nil, false, err
			}
			res, err := analysis.RunStatic(inst.Prog, req.Opt, req.Mode, req.Budget)
			if err != nil {
				return nil, false, err
			}
			return &StaticReport{Workload: wl.Name, Opt: req.Opt.String(), StaticResult: *res}, false, nil
		})
	})
}
