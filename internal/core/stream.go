package core

import (
	"fmt"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// This file is the analyzer's streaming ingest path. The batch path
// (Analyze) runs in strict stages — decode the whole trace, validate it,
// build columns, build DCFGs — each a full pass over every record, and
// replay cannot start until the last one finishes. With an indexed v3 trace
// none of that serialization is necessary: thread sections decode
// independently, so the per-thread work (validation, packed SoA columns) can
// ride inside the decode worker while the section is cache-hot, and the one
// stage that is inherently ordered — the merged DCFG walk — runs on a
// consumer goroutine that chases the decoders section by section. By the
// time the last section lands, validation, columns, and graphs are already
// done, and the warps fan straight out over the replay workers'
// work-stealing pool. Results are bit-identical to the batch path at every
// parallelism.

// AnalyzeStream runs the full analyzer over an indexed trace with decode,
// validation, column building, and DCFG construction pipelined per thread
// section. The returned report is identical to decoding the trace and
// calling Analyze.
func AnalyzeStream(r *trace.Reader, opts Options) (*Report, error) {
	if opts.WarpSize == 0 {
		return nil, fmt.Errorf("core: WarpSize must be set (use core.Defaults)")
	}
	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, fmt.Errorf("core: analysis canceled: %w", opts.Context.Err())
	}
	t, p, err := prepareStream(r, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	warps, err := warp.Form(t, opts.WarpSize, opts.Formation)
	if err != nil {
		return nil, fmt.Errorf("core: forming warps: %w", err)
	}
	return analyzeWith(t, p, warps, opts)
}

// prepareStream ingests every thread section of r and returns the decoded
// trace plus its prepared analysis products. Decode workers (work-stealing
// over sections, bounded by pool.Workers) each decode a section, validate
// it, and derive its packed SoA columns in one cache-hot pass; a consumer
// goroutine walks completed sections in trace order to build the merged
// DCFGs, so graph construction overlaps the remaining decodes. The ordered
// walk is what keeps the result — including DCFG entry observation order —
// identical to the batch path's.
func prepareStream(r *trace.Reader, parallelism int) (*trace.Trace, *prep, error) {
	hdr := r.Header()
	n := r.NumThreads()
	t := &trace.Trace{
		Program: hdr.Program,
		Entry:   hdr.Entry,
		Funcs:   hdr.Funcs,
		Threads: make([]*trace.ThreadTrace, n),
	}
	cols := trace.NewCols(n)
	t.Cols = cols

	// ready[i] is closed once section i is decoded (or failed); errs[i]
	// holds its error. The channel close publishes the worker's writes to
	// t.Threads[i], the column slots, and errs[i] to the consumer.
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	errs := make([]error, n)

	b := cfg.NewBuilder(t.Funcs)
	var walkErr error
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		for i := 0; i < n; i++ {
			<-ready[i]
			if errs[i] != nil {
				// First failing section in trace order wins, matching the
				// deterministic error the batch stages would surface.
				walkErr = errs[i]
				return
			}
			if walkErr = b.AddThread(t.Threads[i]); walkErr != nil {
				return
			}
		}
	}()

	pool.ForEach(pool.Workers(parallelism, n), n, func(_, i int) bool {
		th, err := r.Thread(i)
		if err == nil {
			err = t.ValidateThread(th)
		}
		if err == nil {
			t.Threads[i] = th
			cols.SetThread(i, th)
		}
		errs[i] = err
		close(ready[i])
		return false
	})
	<-walked
	if walkErr != nil {
		return nil, nil, fmt.Errorf("core: streaming ingest: %w", walkErr)
	}
	graphs := b.Finish()
	return t, &prep{graphs: graphs, pdoms: ipdom.ComputeAll(graphs)}, nil
}
