// Package serve implements tfserve, the long-running multi-tenant analysis
// service: one engine behind an HTTP/JSON API that accepts streamed .tft
// uploads and serves the analyzer, lint, check, and static oracles that the
// one-shot CLIs previously each re-ran from scratch.
//
// A request passes four production layers before any replay runs:
//
//	tenant budget → admission queue → singleflight dedup → engine slots
//
// The per-tenant budget bounds how much of the service one tenant can hold
// at once, so a tenant saturating its budget is shed (429) without touching
// anyone else's capacity. The admission queue bounds total admitted work;
// beyond it the server sheds immediately with 429 + Retry-After rather than
// queueing unboundedly — the accept loop never blocks. Identical in-flight
// analyses (same trace content digest, same semantic options) collapse into
// one: followers block on the leader's result and receive byte-identical
// response bodies, with zero duplicate replays. Engine slots bound actual
// replay concurrency. Request timeouts and client disconnects cancel through
// context.Context all the way into the SIMT replay loop, and shutdown drains
// admitted work before returning.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"threadfuser/internal/core"
	"threadfuser/internal/pool"
)

// TenantHeader names the request header carrying the tenant identity.
// Requests without one share the DefaultTenant budget.
const TenantHeader = "X-Tf-Tenant"

// DefaultTenant is the budget bucket for requests that name no tenant.
const DefaultTenant = "anonymous"

// Config configures a Server. The zero value is usable: every field has a
// serving default.
type Config struct {
	// MaxConcurrent bounds simultaneously executing analyses (engine
	// slots). Default: runtime.GOMAXPROCS(0).
	MaxConcurrent int
	// QueueDepth bounds admitted requests — executing plus waiting for an
	// engine slot. Beyond it requests are shed with 429 + Retry-After.
	// Default: 4 × MaxConcurrent.
	QueueDepth int
	// TenantBudget bounds one tenant's admitted requests. Default:
	// MaxConcurrent (one tenant can fill the engine but never the whole
	// queue, so other tenants always have admission room).
	TenantBudget int
	// MaxUploadBytes bounds one .tft upload; larger bodies get 413, before
	// any byte is read when the request declares its length. Default: 1 GiB.
	MaxUploadBytes int64
	// RequestTimeout bounds one request end to end, from the start of the
	// body read through queueing and the replay. A body still unread at
	// expiry gets 408; later expiry cancels the replay and returns 504.
	// Default: 2 minutes.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses. Default: 1s.
	RetryAfter time.Duration
	// ReplayParallelism is the worker count inside a single replay. The
	// default, 1, optimizes for request throughput: concurrency comes from
	// MaxConcurrent independent requests, not from fanning one request over
	// every core. Raise it for latency-sensitive, low-traffic deployments.
	ReplayParallelism int
	// DecodeParallelism is the worker count for decoding one upload when a
	// job needs its trace (a negative value means one per core). Default: 1.
	DecodeParallelism int
	// Cache, if set, serves repeat analyses from the content-addressed
	// report store and persists new ones. Combine with Cache.SetMaxBytes to
	// keep a long-running service's disk bounded (LRU).
	Cache *core.Cache
	// SpoolDir is ignored: uploads are read straight into memory.
	//
	// Deprecated: nothing is spooled to disk any more; the field remains
	// only so existing callers still compile.
	SpoolDir string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.TenantBudget <= 0 {
		c.TenantBudget = c.MaxConcurrent
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ReplayParallelism == 0 {
		c.ReplayParallelism = 1
	}
	if c.DecodeParallelism == 0 {
		c.DecodeParallelism = 1
	}
	return c
}

// Server is the analysis service. Create with New; it implements
// http.Handler.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  *pool.Sem
	engine *pool.Sem

	mu      sync.Mutex
	tenants map[string]*pool.Sem
	flights map[string]*flight

	// drainMu orders request registration against drain initiation: admit
	// registers in-flight work under the read side, Drain flips draining
	// under the write side, so no registration can slip in after Drain has
	// started waiting (the WaitGroup Add/Wait exclusion rule).
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	draining atomic.Bool

	stats struct {
		requests, shedQueue, shedTenant   atomic.Uint64
		dedupFollowers, cacheHits         atomic.Uint64
		analyses, timeouts, clientErrors  atomic.Uint64
		serverErrors, completed, rejected atomic.Uint64
	}
}

// New returns a Server ready to mount on an http.Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		queue:   nil,
		tenants: make(map[string]*pool.Sem),
		flights: make(map[string]*flight),
	}
	s.queue = pool.NewSem(s.cfg.QueueDepth)
	s.engine = pool.NewSem(s.cfg.MaxConcurrent)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/analyze", s.serveUpload("analyze", s.analyzeJob))
	mux.HandleFunc("POST /v1/lint", s.serveUpload("lint", s.lintJob))
	mux.HandleFunc("POST /v1/check", s.serveUpload("check", s.checkJob))
	mux.HandleFunc("GET /v1/static", s.handleStatic)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the service's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting new requests (503 + Retry-After) and waits for
// every admitted request and in-flight analysis to finish, or for ctx to
// expire. It is the graceful half of shutdown; pair it with
// http.Server.Shutdown for the connection half.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// tenant returns (creating on first use) the named tenant's budget
// semaphore.
func (s *Server) tenant(name string) *pool.Sem {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		t = pool.NewSem(s.cfg.TenantBudget)
		s.tenants[name] = t
	}
	return t
}

// TenantInFlight returns the named tenant's currently admitted request
// count — a stats/test observability hook.
func (s *Server) TenantInFlight(name string) int {
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.InUse()
}

// QueueInFlight returns the number of currently admitted requests.
func (s *Server) QueueInFlight() int { return s.queue.InUse() }

// tenantOf extracts the request's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return DefaultTenant
}

// admit runs the shedding layers for one request: tenant budget first (an
// over-budget tenant never consumes shared queue room), then the admission
// queue. It returns a release function and false if the request was shed
// (the response has already been written).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	// Register under drainMu's read side: either this lands before Drain
	// flips the flag (and Drain's Wait covers it) or it observes draining
	// and is refused. See drainMu.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.rejected(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	admitted := false
	defer func() {
		if !admitted {
			s.inflight.Done()
		}
	}()
	tenant := tenantOf(r)
	tsem := s.tenant(tenant)
	if !tsem.TryAcquire() {
		s.stats.shedTenant.Add(1)
		s.rejected(w, http.StatusTooManyRequests,
			"tenant %q concurrency budget (%d) exhausted", tenant, tsem.Cap())
		return nil, false
	}
	if !s.queue.TryAcquire() {
		tsem.Release()
		s.stats.shedQueue.Add(1)
		s.rejected(w, http.StatusTooManyRequests,
			"admission queue full (%d requests admitted)", s.queue.Cap())
		return nil, false
	}
	admitted = true
	var once sync.Once
	return func() {
		once.Do(func() {
			s.queue.Release()
			tsem.Release()
			s.inflight.Done()
		})
	}, true
}

// outcome is a flight's terminal state: a status code and a fully marshalled
// body that every requester of the flight writes verbatim — byte-identical
// responses for leader and followers by construction.
type outcome struct {
	status   int
	body     []byte
	cacheHit bool
}

// flight is one in-flight deduplicated computation. refs counts requesters
// currently waiting on it; when the last one walks away the flight's context
// is canceled and the computation aborts.
type flight struct {
	done   chan struct{}
	out    *outcome
	refs   int
	cancel context.CancelFunc
}

// serveFlight coalesces identical work: the first requester for key becomes
// the leader and runs the computation in its own goroutine under a context
// that lives while any requester still waits; later requesters join as
// followers. Whoever is still waiting when the computation finishes writes
// the shared outcome.
func (s *Server) serveFlight(ctx context.Context, w http.ResponseWriter, key string, run func(context.Context) *outcome) {
	for {
		s.mu.Lock()
		f := s.flights[key]
		if f == nil {
			jctx, cancel := context.WithCancel(context.Background())
			f = &flight{done: make(chan struct{}), refs: 1, cancel: cancel}
			s.flights[key] = f
			s.mu.Unlock()
			s.inflight.Add(1)
			go func() {
				defer s.inflight.Done()
				defer cancel()
				out := run(jctx)
				s.mu.Lock()
				delete(s.flights, key)
				f.out = out
				s.mu.Unlock()
				close(f.done)
			}()
			s.awaitFlight(ctx, w, f, "leader")
			return
		}
		f.refs++
		s.mu.Unlock()
		s.stats.dedupFollowers.Add(1)
		if s.awaitFlight(ctx, w, f, "follower") {
			return
		}
		// The flight we joined died of cancellation (its previous waiters
		// all left before we arrived) while our own context is still live:
		// loop and become the new leader.
	}
}

// awaitFlight waits for the flight or the requester's context, writes the
// response, and reports whether the request was actually served (false
// means: retry on a fresh flight).
func (s *Server) awaitFlight(ctx context.Context, w http.ResponseWriter, f *flight, role string) (served bool) {
	select {
	case <-f.done:
		out := f.out
		if out.status == statusCanceled {
			if ctx.Err() == nil {
				// Not our cancellation: the flight was abandoned. Retry.
				return false
			}
			s.stats.timeouts.Add(1)
			s.fail(w, http.StatusGatewayTimeout, "analysis canceled: %v", ctx.Err())
			return true
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Tfserve-Dedup", role)
		if out.cacheHit {
			h.Set("X-Tfserve-Cache", "hit")
		} else {
			h.Set("X-Tfserve-Cache", "miss")
		}
		s.countStatus(out.status)
		w.WriteHeader(out.status)
		w.Write(out.body)
		return true
	case <-ctx.Done():
		s.deref(f)
		s.stats.timeouts.Add(1)
		s.fail(w, http.StatusGatewayTimeout, "request deadline exceeded while %s on in-flight analysis", role)
		return true
	}
}

// deref drops one requester's interest in a flight, canceling the
// computation when the last one leaves.
func (s *Server) deref(f *flight) {
	s.mu.Lock()
	f.refs--
	last := f.refs == 0
	s.mu.Unlock()
	if last {
		f.cancel()
	}
}

// statusCanceled is the internal outcome status for a computation that was
// canceled rather than completed; each waiter translates it against its own
// context (its own deadline → 504, someone else's → retry).
const statusCanceled = -1

// runJob executes one deduplicated computation: acquire an engine slot
// (waiting under the flight's context), run the job, marshal the result
// once. All error mapping to HTTP statuses happens here so every waiter
// sees the same bytes.
func (s *Server) runJob(jctx context.Context, job func(context.Context) (any, bool, error)) *outcome {
	if err := s.engine.Acquire(jctx); err != nil {
		return &outcome{status: statusCanceled}
	}
	defer s.engine.Release()
	s.stats.analyses.Add(1)
	res, cacheHit, err := job(jctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return &outcome{status: statusCanceled}
		}
		// The trace decoded but the engine rejected it (validation,
		// malformed structure the codec tolerates): the request, not the
		// server, is at fault.
		return errOutcome(http.StatusUnprocessableEntity, "%v", err)
	}
	if cacheHit {
		s.stats.cacheHits.Add(1)
	}
	body, err := json.Marshal(res)
	if err != nil {
		return errOutcome(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return &outcome{status: http.StatusOK, body: body, cacheHit: cacheHit}
}

func errOutcome(status int, format string, args ...any) *outcome {
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return &outcome{status: status, body: body}
}

// countStatus counts one answered request by its status class: a 5xx is
// the server's fault, a 4xx the client's, anything else a completion.
func (s *Server) countStatus(status int) {
	switch {
	case status >= 500:
		s.stats.serverErrors.Add(1)
	case status >= 400:
		s.stats.clientErrors.Add(1)
	default:
		s.stats.completed.Add(1)
	}
}

// failRequest counts a request that fails before reaching a flight and
// writes its JSON error response.
func (s *Server) failRequest(w http.ResponseWriter, status int, format string, args ...any) {
	s.countStatus(status)
	s.fail(w, status, format, args...)
}

// fail writes a JSON error response.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// rejected writes a shedding response: the status, a Retry-After hint, and
// a JSON error body.
func (s *Server) rejected(w http.ResponseWriter, status int, format string, args ...any) {
	s.stats.rejected.Add(1)
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, status, format, args...)
}

// Stats is the service's observable state, served at /v1/stats.
type Stats struct {
	Requests       uint64         `json:"requests"`
	Completed      uint64         `json:"completed"`
	ShedQueue      uint64         `json:"shed_queue"`
	ShedTenant     uint64         `json:"shed_tenant"`
	Rejected       uint64         `json:"rejected"`
	DedupFollowers uint64         `json:"dedup_followers"`
	CacheHits      uint64         `json:"cache_hits"`
	Analyses       uint64         `json:"analyses"`
	Timeouts       uint64         `json:"timeouts"`
	ClientErrors   uint64         `json:"client_errors"`
	ServerErrors   uint64         `json:"server_errors"`
	Draining       bool           `json:"draining"`
	QueueInUse     int            `json:"queue_in_use"`
	QueueDepth     int            `json:"queue_depth"`
	EngineInUse    int            `json:"engine_in_use"`
	EngineSlots    int            `json:"engine_slots"`
	Tenants        map[string]int `json:"tenants,omitempty"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	st := Stats{
		Requests:       s.stats.requests.Load(),
		Completed:      s.stats.completed.Load(),
		ShedQueue:      s.stats.shedQueue.Load(),
		ShedTenant:     s.stats.shedTenant.Load(),
		Rejected:       s.stats.rejected.Load(),
		DedupFollowers: s.stats.dedupFollowers.Load(),
		CacheHits:      s.stats.cacheHits.Load(),
		Analyses:       s.stats.analyses.Load(),
		Timeouts:       s.stats.timeouts.Load(),
		ClientErrors:   s.stats.clientErrors.Load(),
		ServerErrors:   s.stats.serverErrors.Load(),
		Draining:       s.draining.Load(),
		QueueInUse:     s.queue.InUse(),
		QueueDepth:     s.queue.Cap(),
		EngineInUse:    s.engine.InUse(),
		EngineSlots:    s.engine.Cap(),
	}
	s.mu.Lock()
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]int, len(s.tenants))
		for name, sem := range s.tenants {
			if n := sem.InUse(); n > 0 {
				st.Tenants[name] = n
			}
		}
	}
	s.mu.Unlock()
	return st
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot())
}
