package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"threadfuser/internal/cfg"
	"threadfuser/internal/core"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// The traced phase pairs every op with a staged mirror: the same work done
// through the public calls each analyzer layer exposes, one layer after
// another, with a span around each. The mirror's replay totals must equal
// the reference, so the spans time the same work the op does. What the real
// op does beyond the mirrored layers (report building, HTTP, spooling, the
// cache store) or saves by overlapping them (the streaming pipeline) shows
// in tracing_overhead_ratio.

// layers are the span names a mirror records, in pipeline order.
var layers = []string{
	"trace.decode", "trace.validate", "trace.cols", "cfg.build", "ipdom.compute",
	"warp.form", "simt.replay", "core.digest", "core.cache", "report.marshal",
}

func (e *env) tracedPhase(res *phaseResult) {
	tr := newTracer()
	var realNs, gcCycles, gcPauseNs uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for p := 1; p <= e.maxCycles; p++ {
		if e.w.kind == kindServeMiss {
			if err := e.newServer(); err != nil {
				res.fail(err)
				break
			}
		}
		for _, it := range e.cycle(p) {
			res.Attempted++
			e.freshHeap()
			runtime.ReadMemStats(&ms0)
			s := e.runOp(it)
			runtime.ReadMemStats(&ms1)
			realNs += uint64(s.lat)
			gcCycles += uint64(ms1.NumGC - ms0.NumGC)
			gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
			err := s.err
			if err == nil {
				_, err = e.verify(s.outs)
			}
			if err == nil {
				e.freshHeap()
				err = e.mirror(tr, it, s.outs)
			}
			if err != nil {
				res.fail(err)
			}
		}
		if time.Since(start).Seconds() >= e.seconds {
			break
		}
	}
	res.Spans = tr.spans
	res.Samples = tr.op
	res.Metrics = layerMetrics(tr.spans, realNs, res.Attempted, gcCycles, gcPauseNs)
}

// mirror runs the staged twin of op it under tr. outs are the real op's
// verified reports, which the mirror marshals as the op did.
func (e *env) mirror(tr *tracer, it item, outs []outcome) error {
	root := tr.beginOp()
	defer tr.end(root)
	path := tracePath(e.dir, it.in, it.enc)
	switch e.w.kind {
	case kindStream, kindSweep:
		t, err := decodeSections(tr, path)
		if err != nil {
			return err
		}
		g, pd, err := prepStages(tr, t)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if err := e.replayStages(tr, t, g, pd, o.in, o.opts); err != nil {
				return err
			}
		}
		if e.w.kind == kindStream {
			return marshal(tr, outs[0].rep)
		}
		return nil
	case kindBatch:
		s := tr.begin("trace.decode")
		t, err := trace.ReadFileParallel(path, it.opts.Parallelism)
		tagDecode(tr.end(s), path, it.enc)
		if err != nil {
			return err
		}
		g, pd, err := prepStages(tr, t)
		if err != nil {
			return err
		}
		if err := e.replayStages(tr, t, g, pd, it.in, it.opts); err != nil {
			return err
		}
		return marshal(tr, outs[0].rep)
	default:
		return e.mirrorUpload(tr, it, path, outs[0].rep)
	}
}

// mirrorUpload repeats what the service does with one upload body:
// strict decode, the dedup key's digest, then either the cache lookup (a hit)
// or a second digest inside AnalyzeCached followed by the analysis stages
// (a miss), and the response marshal. Replay runs serially, as the service's
// default ReplayParallelism does.
func (e *env) mirrorUpload(tr *tracer, it item, path string, rep *core.Report) error {
	body := e.bodies[path]
	s := tr.begin("trace.decode")
	t, err := trace.DecodeStrict(bytes.NewReader(body), int64(len(body)), 1)
	tagDecode(tr.end(s), path, it.enc)
	if err != nil {
		return err
	}
	o := it.opts
	o.Parallelism = 1
	s = tr.begin("core.digest")
	_, err = core.CacheKey(t, o)
	tr.end(s)
	if err != nil {
		return err
	}
	if e.w.kind == kindServeHit {
		s = tr.begin("core.cache")
		cached, hit, err := core.AnalyzeCached(e.srv.cache, t, o)
		tr.end(s)
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("%s: mirror missed the cache", refKey(it.in, o))
		}
		if _, err := e.refs.check(it.in, o, cached); err != nil {
			return err
		}
	} else {
		s = tr.begin("core.digest")
		_, err = core.TraceDigest(t)
		tr.end(s)
		if err != nil {
			return err
		}
		g, pd, err := prepStages(tr, t)
		if err != nil {
			return err
		}
		if err := e.replayStages(tr, t, g, pd, it.in, o); err != nil {
			return err
		}
	}
	s = tr.begin("report.marshal")
	_, err = json.Marshal(rep)
	tr.end(s)
	return err
}

func tagDecode(s *span, path, enc string) {
	if st, err := os.Stat(path); err == nil {
		s.Bytes = st.Size()
	}
	s.Tag = enc
}

// decodeSections decodes an indexed file thread by thread, as the streaming
// ingest's decode workers do, into a trace shaped like the one it builds.
func decodeSections(tr *tracer, path string) (*trace.Trace, error) {
	s := tr.begin("trace.decode")
	t, err := readSections(path)
	tagDecode(tr.end(s), path, "v3")
	return t, err
}

func readSections(path string) (*trace.Trace, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	hdr := r.Header()
	t := &trace.Trace{Program: hdr.Program, Entry: hdr.Entry, Funcs: hdr.Funcs,
		Threads: make([]*trace.ThreadTrace, r.NumThreads())}
	for i := range t.Threads {
		if t.Threads[i], err = r.Thread(i); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// prepStages validates the trace, packs its replay columns, builds the
// merged DCFGs and their post-dominator trees: the trace-only preparation
// every analysis entry point performs.
func prepStages(tr *tracer, t *trace.Trace) (map[uint32]*cfg.DCFG, map[uint32]*ipdom.PostDom, error) {
	s := tr.begin("trace.validate")
	for _, th := range t.Threads {
		if err := t.ValidateThread(th); err != nil {
			tr.end(s)
			return nil, nil, err
		}
	}
	tr.end(s)

	s = tr.begin("trace.cols")
	cols := trace.NewCols(len(t.Threads))
	for i, th := range t.Threads {
		cols.SetThread(i, th)
	}
	t.Cols = cols
	tr.end(s)

	s = tr.begin("cfg.build")
	b := cfg.NewBuilder(t.Funcs)
	for _, th := range t.Threads {
		if err := b.AddThread(th); err != nil {
			tr.end(s)
			return nil, nil, err
		}
	}
	graphs := b.Finish()
	tr.end(s)

	s = tr.begin("ipdom.compute")
	pdoms := ipdom.ComputeAll(graphs)
	tr.end(s)
	return graphs, pdoms, nil
}

// replayStages forms warps and replays them under one configuration, then
// checks the replay's totals against the reference report.
func (e *env) replayStages(tr *tracer, t *trace.Trace, g map[uint32]*cfg.DCFG, pd map[uint32]*ipdom.PostDom, in input, o core.Options) error {
	s := tr.begin("warp.form")
	warps, err := warp.Form(t, o.WarpSize, o.Formation)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("simt.replay")
	res, err := simt.Replay(t, g, pd, warps, simt.Options{
		WarpSize:          o.WarpSize,
		EmulateLocks:      o.EmulateLocks,
		LockReconvergence: o.LockReconvergence,
		Parallelism:       o.Parallelism,
	})
	sp := tr.end(s)
	if err != nil {
		return err
	}
	tot := res.Total()
	sp.Instrs = tot.ThreadInstrs
	key := refKey(in, o)
	ref := e.refs.Refs[key]
	if tot.ThreadInstrs != ref.TotalInstrs || tot.Lockstep != ref.LockstepInstrs ||
		tot.HeapTx != ref.HeapTx || tot.StackTx != ref.StackTx || tot.MemInstrs != ref.MemInstrs {
		return fmt.Errorf("%s: staged replay totals differ from the reference", key)
	}
	return nil
}

func marshal(tr *tracer, rep *core.Report) error {
	s := tr.begin("report.marshal")
	defer tr.end(s)
	return json.NewEncoder(io.Discard).Encode(rep)
}

// layerMetrics turns the traced phase's spans into per-layer metrics.
// Shares are each layer's self time over the summed mirror-op wall, so they
// and unattributed_share add up to 1.
func layerMetrics(spans []span, realNs uint64, ops int, gcCycles, gcPauseNs uint64) map[string]metric {
	self := selfTimes(spans)
	layerNs := map[string]int64{}
	var rootNs, unattributedNs int64
	var rootMs, decodeMs []float64
	decodeOpNs := map[int]int64{}
	var decodeAllocs, replayAllocs []float64
	// Decoded file bytes and decode self time, per encoding.
	decodeBytes := map[string]int64{}
	decodeEncNs := map[string]int64{}
	var replayNs int64
	var replayInstrs uint64
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 {
			rootNs += s.dur()
			unattributedNs += self[i]
			rootMs = append(rootMs, float64(s.dur())/1e6)
			continue
		}
		layerNs[s.Name] += self[i]
		switch s.Name {
		case "trace.decode":
			decodeOpNs[s.Op] += self[i]
			decodeAllocs = append(decodeAllocs, float64(s.Allocs))
			decodeBytes[s.Tag] += s.Bytes
			decodeEncNs[s.Tag] += self[i]
		case "simt.replay":
			replayNs += self[i]
			replayInstrs += s.Instrs
			replayAllocs = append(replayAllocs, float64(s.Allocs))
		}
	}
	for _, ns := range decodeOpNs {
		decodeMs = append(decodeMs, float64(ns)/1e6)
	}
	rate := func(num float64, ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return num / (float64(ns) / 1e9)
	}
	share := func(ns int64) float64 {
		if rootNs <= 0 {
			return 0
		}
		return float64(ns) / float64(rootNs)
	}
	n := float64(max(ops, 1))
	m := map[string]metric{
		"traced.op_ms":           {median(rootMs), "ms"},
		"tracing_overhead_ratio": {float64(rootNs)/float64(max(realNs, 1)) - 1, "ratio"},
		"trace.decode_ms":        {median(decodeMs), "ms"},
		"trace.decode_mb_per_s": {rate(float64(decodeBytes["v1"]+decodeBytes["v3"])/1e6,
			decodeEncNs["v1"]+decodeEncNs["v3"]), "MB/s"},
		"trace.decode_v1_mb_per_s":   {rate(float64(decodeBytes["v1"])/1e6, decodeEncNs["v1"]), "MB/s"},
		"trace.decode_v3_mb_per_s":   {rate(float64(decodeBytes["v3"])/1e6, decodeEncNs["v3"]), "MB/s"},
		"trace.decode_allocs_per_op": {zeroIfNaN(median(decodeAllocs)), "count"},
		"simt.replay_minstr_per_s":   {rate(float64(replayInstrs)/1e6, replayNs), "Minstr/s"},
		"simt.replay_allocs_per_op":  {zeroIfNaN(median(replayAllocs)), "count"},
		"unattributed_share":         {share(unattributedNs), "ratio"},
		"go.gc_cycles_per_op":        {float64(gcCycles) / n, "count"},
		"go.gc_pause_ms_per_op":      {float64(gcPauseNs) / 1e6 / n, "ms"},
	}
	for _, l := range layers {
		m[l+"_share"] = metric{share(layerNs[l]), "ratio"}
	}
	return m
}

func zeroIfNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}
