// Command tfserve runs the ThreadFuser analysis service: a long-running
// multi-tenant HTTP server that accepts streamed .tft uploads and serves
// the analyzer, lint, check, and static oracles as JSON, with admission
// control, per-tenant budgets, in-flight dedup, and a bounded on-disk
// report cache. The one-shot CLIs gain a -server flag that routes through
// it, so a team shares one warm cache and one replay budget.
//
// Usage:
//
//	tfserve [-addr :8787] [-concurrency N] [-queue N] [-tenant-budget N]
//	        [-max-upload-mb N] [-timeout D] [-cache] [-cache-dir DIR]
//	        [-cache-max-mb N] [-replay-parallel N] [-decode-parallel N]
//
// SIGINT/SIGTERM triggers a graceful shutdown: new work is shed with 503,
// admitted work drains, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threadfuser/internal/core"
	"threadfuser/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8787", "listen address")
		concurrency  = flag.Int("concurrency", 0, "max simultaneously executing analyses (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth; beyond it requests get 429 (0 = 4x concurrency)")
		tenantBudget = flag.Int("tenant-budget", 0, "per-tenant concurrent request budget (0 = concurrency)")
		maxUploadMB  = flag.Int64("max-upload-mb", 1024, "largest accepted .tft upload, in MiB")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-request deadline, queueing included")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		replayPar    = flag.Int("replay-parallel", 1, "worker count inside one replay (throughput vs latency)")
		decodePar    = flag.Int("decode-parallel", 1, "worker count decoding one upload on a cache miss (-1 = one per core)")
		cacheOn      = flag.Bool("cache", true, "serve repeat analyses from the on-disk report cache")
		cacheDir     = flag.String("cache-dir", "", "cache directory (default: user cache dir/threadfuser)")
		cacheMaxMB   = flag.Int64("cache-max-mb", 512, "cache size cap in MiB; LRU-evicted past it (0 = unbounded)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight work on shutdown")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "tfserve: unexpected arguments", flag.Args())
		os.Exit(2)
	}

	cache := core.OpenFlagCache(*cacheOn, *cacheDir)
	if cache != nil && *cacheMaxMB > 0 {
		cache.SetMaxBytes(*cacheMaxMB << 20)
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:     *concurrency,
		QueueDepth:        *queue,
		TenantBudget:      *tenantBudget,
		MaxUploadBytes:    *maxUploadMB << 20,
		RequestTimeout:    *timeout,
		RetryAfter:        *retryAfter,
		ReplayParallelism: *replayPar,
		DecodeParallelism: *decodePar,
		Cache:             cache,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof endpoints live on their own listener, never the service one:
	// profiles expose internals no tenant should reach, so the operator binds
	// -debug-addr to localhost (or a firewalled port) and the main address
	// stays clean. The debug server's lifetime is the process's — profiling a
	// draining server is exactly the use case.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("tfserve: pprof on %s", *debugAddr)
			ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if err := ds.ListenAndServe(); err != nil {
				log.Printf("tfserve: pprof server: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("tfserve: listening on %s", *addr)
		if cache != nil {
			log.Printf("tfserve: report cache at %s (cap %d MiB)", cache.Dir(), *cacheMaxMB)
		}
		errc <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("tfserve: %v", err)
	case s := <-sig:
		log.Printf("tfserve: %v: draining", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("tfserve: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("tfserve: shutdown: %v", err)
	}
	log.Printf("tfserve: stopped")
}
