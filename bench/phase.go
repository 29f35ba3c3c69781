package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"threadfuser/internal/core"
	"threadfuser/internal/serve"
	"threadfuser/internal/trace"
)

// phaseConfig drives one measured or traced phase over prepared inputs.
type phaseConfig struct {
	w       *workload
	dir     string // prepared inputs and references; scratch space
	seed    int64
	seconds float64
	traced  bool
	// minOps is the fewest ops the measured phase runs, so its highest
	// reported percentile keeps tailSamples beyond it.
	minOps int
	// maxCycles bounds the traced phase: each cycle runs every op once.
	maxCycles int
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseResult is what a phase reports to the process that prepared it.
type phaseResult struct {
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Errors       []string          `json:"errors,omitempty"`
	SetupSeconds float64           `json:"setup_s"`
	Samples      int               `json:"samples"`
	Metrics      map[string]metric `json:"metrics"`
	Spans        []span            `json:"-"`
}

func (r *phaseResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// item is one op: an input, the analyzer options it runs under (for uploads,
// the request's key), and the encoding of the file it reads.
type item struct {
	in   input
	opts core.Options
	enc  string
}

// outcome is one analysis an op produced: a local report, or a service
// response body still to be decoded.
type outcome struct {
	in   input
	opts core.Options
	rep  *core.Report
	body []byte
}

type sample struct {
	lat  time.Duration
	outs []outcome
	err  error
}

// env holds what a phase's ops share.
type env struct {
	phaseConfig
	refs   *refSet
	bodies map[string][]byte // upload bodies by file path
	client *http.Client
	srv    *server // the service that takes the uploads
	// warm is set once set-up is done: from then on serve-upload-hit
	// expects every upload to hit the cache the warm-up filled.
	warm bool
}

// server is an in-process tfserve on loopback with its own report cache.
type server struct {
	ts    *httptest.Server
	svc   *serve.Server
	cache *core.Cache
	dir   string
}

func runPhase(cfg phaseConfig) (*phaseResult, error) {
	refs, err := loadRefs(cfg.dir)
	if err != nil {
		return nil, err
	}
	e := &env{phaseConfig: cfg, refs: refs}
	defer e.closeServer()
	res := &phaseResult{}
	t0 := time.Now()
	if err := e.setup(); err != nil {
		return nil, err
	}
	res.SetupSeconds = time.Since(t0).Seconds()
	if cfg.traced {
		e.tracedPhase(res)
	} else {
		e.measuredPhase(res)
	}
	return res, nil
}

// setup loads upload bodies, starts the service, and runs one warm-up op per
// item of cycle 0; for serve-upload-hit that fills the report cache.
func (e *env) setup() error {
	if e.isServe() {
		e.bodies = map[string][]byte{}
		for _, in := range e.w.inputs {
			for _, enc := range e.w.encodings() {
				p := tracePath(e.dir, in, enc)
				b, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				e.bodies[p] = b
			}
		}
		e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
		if err := e.newServer(); err != nil {
			return err
		}
	}
	for _, it := range e.cycle(0) {
		s := e.runOp(it)
		if s.err == nil {
			_, s.err = e.verify(s.outs)
		}
		if s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	e.warm = true
	return nil
}

// freshHeap collects the heap before a tfanalyze op, which runs in a fresh
// process; the service's heap carries over between requests.
func (e *env) freshHeap() {
	if !e.isServe() {
		runtime.GC()
	}
}

func (e *env) isServe() bool { return e.w.kind == kindServeMiss || e.w.kind == kindServeHit }

// clients is the closed-loop client count for uploads: one process drives
// at most min(2, nproc) connections.
func clients() int { return min(2, runtime.NumCPU()) }

// newServer replaces the service with one whose report cache is empty. Its
// defaults are kept; only the cache and spool directories are set.
func (e *env) newServer() error {
	e.closeServer()
	dir := filepath.Join(e.dir, "srv")
	if err := os.MkdirAll(filepath.Join(dir, "spool"), 0o755); err != nil {
		return err
	}
	cache := core.NewCache(filepath.Join(dir, "cache"))
	s := serve.New(serve.Config{Cache: cache, SpoolDir: filepath.Join(dir, "spool")})
	e.srv = &server{ts: httptest.NewServer(s), svc: s, cache: cache, dir: dir}
	return nil
}

// closeServer waits for the service's detached analyses, stops it and
// deletes its cache, so a run holds one service at a time.
func (e *env) closeServer() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	e.client.CloseIdleConnections()
	e.srv.ts.Close()
	os.RemoveAll(e.srv.dir)
	e.srv = nil
}

// cycle returns pass p's ops. Analyses visit each input once, in order.
// Uploads send every (input, options) key once in a seeded shuffle, each in
// the encoding the previous pass did not use, so the two decoders see the
// same traces and hits must come from the encoding-independent cache key.
func (e *env) cycle(p int) []item {
	encs := e.w.encodings()
	var items []item
	for _, in := range e.w.inputs {
		opts := e.w.configs(in)
		if !e.isServe() {
			opts = opts[:1] // an analysis op covers all of its input's configurations
		}
		for _, o := range opts {
			items = append(items, item{in: in, opts: o, enc: encs[(len(items)+p)%len(encs)]})
		}
	}
	if e.isServe() {
		rng := rand.New(rand.NewSource(e.seed*1_000_003 + int64(p)))
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
	return items
}

// runOp runs one op the way its user does and times it.
func (e *env) runOp(it item) sample {
	path := tracePath(e.dir, it.in, it.enc)
	start := time.Now()
	var s sample
	switch e.w.kind {
	case kindStream, kindBatch:
		analyze := analyzeBatch
		if e.w.kind == kindStream {
			analyze = analyzeStream
		}
		var rep *core.Report
		rep, s.err = analyze(path, it.opts)
		s.outs = []outcome{{in: it.in, opts: it.opts, rep: rep}}
	case kindSweep:
		s.outs, s.err = e.sweep(path, it.in)
	case kindServeMiss, kindServeHit:
		var body []byte
		body, s.err = e.upload(path, it.opts)
		s.outs = []outcome{{in: it.in, opts: it.opts, body: body}}
	}
	s.lat = time.Since(start)
	return s
}

// analyzeStream is tfanalyze -json on an indexed file.
func analyzeStream(path string, o core.Options) (*core.Report, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	rep, err := core.AnalyzeStream(r, o)
	if err != nil {
		return nil, err
	}
	return rep, json.NewEncoder(io.Discard).Encode(rep)
}

// analyzeBatch is tfanalyze -json on an unindexed file.
func analyzeBatch(path string, o core.Options) (*core.Report, error) {
	t, err := trace.ReadFileParallel(path, o.Parallelism)
	if err != nil {
		return nil, err
	}
	rep, err := core.Analyze(t, o)
	if err != nil {
		return nil, err
	}
	return rep, json.NewEncoder(io.Discard).Encode(rep)
}

// sweep is tfanalyze -sweep extended to every formation: one streaming
// ingest into a session, then one replay per configuration.
func (e *env) sweep(path string, in input) ([]outcome, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	sess := core.NewSession()
	t, err := sess.Ingest(r, 0)
	if err != nil {
		return nil, err
	}
	var outs []outcome
	for _, o := range e.w.configs(in) {
		rep, err := sess.Analyze(t, o)
		if err != nil {
			return nil, err
		}
		outs = append(outs, outcome{in: in, opts: o, rep: rep})
	}
	return outs, nil
}

// upload POSTs a .tft file to /v1/analyze. Anything but a 200 whose cache
// header matches the workload's expectation is a failed op.
func (e *env) upload(path string, o core.Options) ([]byte, error) {
	q := url.Values{"warp": {strconv.Itoa(o.WarpSize)}}
	if o.EmulateLocks {
		q.Set("locks", "true")
	}
	resp, err := e.client.Post(e.srv.ts.URL+"/v1/analyze?"+q.Encode(), "application/octet-stream",
		bytes.NewReader(e.bodies[path]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", filepath.Base(path), resp.StatusCode, strings.TrimSpace(string(body)))
	}
	want := "miss"
	if e.w.kind == kindServeHit && e.warm {
		want = "hit"
	}
	if got := resp.Header.Get("X-Tfserve-Cache"); got != want {
		return nil, fmt.Errorf("%s: cache %s, want %s", filepath.Base(path), got, want)
	}
	return body, nil
}

// verify checks an op's reports against the references, decoding service
// bodies first, and returns their traced instruction total. It runs outside
// every timed interval.
func (e *env) verify(outs []outcome) (uint64, error) {
	var instrs uint64
	for i := range outs {
		o := &outs[i]
		if o.rep == nil {
			o.rep = new(core.Report)
			if err := json.Unmarshal(o.body, o.rep); err != nil {
				return 0, fmt.Errorf("decoding response: %w", err)
			}
		}
		n, err := e.refs.check(o.in, o.opts, o.rep)
		if err != nil {
			return 0, err
		}
		instrs += n
	}
	return instrs, nil
}

// runPass runs one cycle's ops and returns them with the pass's busy time.
// Uploads come from a closed loop of clients() connections to one long-lived
// service, so the pass is timed end to end. Analyses run one after another,
// each starting from a collected heap as a fresh tfanalyze process does;
// the collection is outside the op's time, and the pass is busy for the sum
// of its ops.
func (e *env) runPass(items []item) ([]sample, float64) {
	out := make([]sample, len(items))
	if !e.isServe() {
		var busy time.Duration
		for i, it := range items {
			e.freshHeap()
			out[i] = e.runOp(it)
			busy += out[i].lat
		}
		return out, busy.Seconds()
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = e.runOp(items[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// measuredPhase runs whole cycles, untraced, until both the run length and
// the minimum op count are reached. After each pass it checks the pass's
// reports and keeps only their latencies and instruction counts, so the heap
// does not grow with the number of ops. The checks are outside the run
// length, the allocation count and every rate. Rates are per busy second:
// the sum of op times for analyses, pass wall time for uploads.
func (e *env) measuredPhase(res *phaseResult) {
	var lats []float64
	var busy float64
	var instrs, allocBytes uint64
	var checking time.Duration
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for p := 1; time.Since(start)-checking < time.Duration(e.seconds*float64(time.Second)) || res.Attempted < e.minOps; p++ {
		if e.w.kind == kindServeMiss {
			if err := e.newServer(); err != nil {
				res.fail(err)
				break
			}
		}
		runtime.ReadMemStats(&ms0)
		samples, b := e.runPass(e.cycle(p))
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		busy += b

		t0 := time.Now()
		for _, s := range samples {
			res.Attempted++
			err := s.err
			if err == nil {
				var n uint64
				n, err = e.verify(s.outs)
				instrs += n
			}
			if err != nil {
				res.fail(err)
				continue
			}
			lats = append(lats, float64(s.lat)/1e6)
		}
		checking += time.Since(t0)
	}
	res.Samples = len(lats)
	rss, err := peakRSS()
	if err != nil {
		res.fail(err)
	}
	res.Metrics = map[string]metric{
		"latency_ms_p50":  {percentile(lats, 0.5), "ms"},
		"latency_ms_p90":  {percentile(lats, 0.9), "ms"},
		"ops_per_s":       {float64(len(lats)) / busy, "1/s"},
		"minstr_per_s":    {float64(instrs) / 1e6 / busy, "Minstr/s"},
		"peak_rss_mb":     {rss, "MB"},
		"alloc_mb_per_op": {float64(allocBytes) / 1e6 / float64(max(res.Attempted, 1)), "MB"},
	}
}

// peakRSS returns the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
