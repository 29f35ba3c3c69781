package threadfuser

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs its
// experiment end to end — tracing, analysis, and (where the artifact needs
// it) lockstep-oracle execution or timing simulation — at reduced scale,
// and reports the headline quantities as custom metrics so `go test
// -bench=. -benchmem` doubles as a results table. The rendered artifact is
// logged once per benchmark; run with -v to see it.
//
// Ablation benchmarks at the bottom cover the design choices DESIGN.md
// calls out: batching policy, warp width, scheduler policy, allocator
// granularity, and lock-emulation cost.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"threadfuser/internal/cfg"
	"threadfuser/internal/core"
	"threadfuser/internal/gpusim"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/report"
	"threadfuser/internal/simt"
	"threadfuser/internal/simtrace"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
	"threadfuser/internal/workloads"
)

var benchScale = report.Scale{Seed: 1}

func BenchmarkFig1WarpWidthEfficiency(b *testing.B) {
	var d *report.Fig1Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum8, sum32 float64
	for _, r := range d.Rows {
		sum8 += r.Eff8
		sum32 += r.Eff32
	}
	b.ReportMetric(sum8/float64(len(d.Rows)), "meanEff@8")
	b.ReportMetric(sum32/float64(len(d.Rows)), "meanEff@32")
	b.Log("\n" + d.Render())
}

func BenchmarkTable1Workloads(b *testing.B) {
	var d *report.Table1Data
	for i := 0; i < b.N; i++ {
		d = report.Table1()
	}
	b.ReportMetric(float64(len(d.Rows)), "workloads")
	b.Log("\n" + d.Render())
}

func BenchmarkFig5aEfficiencyCorrelation(b *testing.B) {
	var d *report.Fig5Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig5a(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, l := range d.Levels {
		b.ReportMetric(l.Pearson, "corr"+l.Level.String())
	}
	b.Log("\n" + d.Render())
}

func BenchmarkFig5bMemoryCorrelation(b *testing.B) {
	var d *report.Fig5Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig5b(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, l := range d.Levels {
		b.ReportMetric(l.MAE, "mae"+l.Level.String())
	}
	b.Log("\n" + d.Render())
}

func BenchmarkFig6ProjectedSpeedup(b *testing.B) {
	var d *report.Fig6Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.SpeedupCorrelation, "speedupCorr")
	b.ReportMetric(d.ExecTimeMAE, "execTimeMAE")
	b.Log("\n" + d.Render())
}

func BenchmarkFig7PerFunctionAnalysis(b *testing.B) {
	var d *report.Fig7Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.OriginalEff, "effBefore")
	b.ReportMetric(d.FixedEff, "effAfter")
	b.ReportMetric(d.GetpointShare, "getpointShare")
	b.Log("\n" + d.Render())
}

func BenchmarkFig8SkippedInstructions(b *testing.B) {
	var d *report.Fig8Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.GeoMean, "tracedGeomean")
	b.Log("\n" + d.Render())
}

func BenchmarkFig9LockingEfficiency(b *testing.B) {
	var d *report.Fig9Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	var drop float64
	for _, r := range d.Rows {
		drop += r.EffFineGrain - r.EffEmulated
	}
	b.ReportMetric(drop/float64(len(d.Rows)), "meanEffDrop")
	b.Log("\n" + d.Render())
}

func BenchmarkFig10MemoryDivergence(b *testing.B) {
	var d *report.Fig10Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Fig10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	var heap float64
	for _, r := range d.Rows {
		heap += r.HeapTxPer
	}
	b.ReportMetric(heap/float64(len(d.Rows)), "meanHeapTxPerInstr")
	b.Log("\n" + d.Render())
}

func BenchmarkTable2Comparison(b *testing.B) {
	var d *report.Table2Data
	var err error
	for i := 0; i < b.N; i++ {
		d, err = report.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.EffMAEO1, "effMAE")
	b.ReportMetric(d.MemMAEO1, "memMAE")
	b.ReportMetric(d.SpeedupCorr, "speedupCorr")
	b.Log("\n" + d.Render())
}

// ----------------------------------------------------------------- ablations

// benchAnalyze is the shared helper for the ablation benchmarks.
func benchAnalyze(b *testing.B, name string, mutate func(*core.Options)) *core.Report {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Defaults()
	if mutate != nil {
		mutate(&opts)
	}
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		rep, err = core.Analyze(tr, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkAblationBatching compares warp-formation policies on a graph
// workload (section III: "different batching algorithms can be explored").
func BenchmarkAblationBatching(b *testing.B) {
	for _, f := range []warp.Formation{warp.RoundRobin, warp.Strided, warp.GreedyEntry} {
		f := f
		b.Run(f.String(), func(b *testing.B) {
			rep := benchAnalyze(b, "rodinia.bfs", func(o *core.Options) { o.Formation = f })
			b.ReportMetric(rep.Efficiency, "efficiency")
		})
	}
}

// BenchmarkAblationWarpWidth sweeps the modelled SIMD width on the paper's
// most width-sensitive workload.
func BenchmarkAblationWarpWidth(b *testing.B) {
	for _, ws := range []int{4, 8, 16, 32, 64} {
		ws := ws
		b.Run(map[bool]string{true: "w"}[true]+itoa(ws), func(b *testing.B) {
			rep := benchAnalyze(b, "other.pigz", func(o *core.Options) { o.WarpSize = ws })
			b.ReportMetric(rep.Efficiency, "efficiency")
		})
	}
}

// BenchmarkAblationLockEmulation measures the analysis-time and efficiency
// cost of intra-warp lock serialization on the lock-heaviest microservice.
func BenchmarkAblationLockEmulation(b *testing.B) {
	for _, locks := range []bool{false, true} {
		locks := locks
		name := "fine-grain-assumed"
		if locks {
			name = "emulated"
		}
		b.Run(name, func(b *testing.B) {
			rep := benchAnalyze(b, "usuite.mcrouter.memcached", func(o *core.Options) { o.EmulateLocks = locks })
			b.ReportMetric(rep.Efficiency, "efficiency")
			b.ReportMetric(float64(rep.LockSerializations), "serializations")
		})
	}
}

// BenchmarkAblationScheduler compares GTO and LRR warp scheduling in the
// timing simulator.
func BenchmarkAblationScheduler(b *testing.B) {
	w, err := workloads.ByName("rodinia.sc")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 1, Threads: 256})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		b.Fatal(err)
	}
	kt, err := simtrace.Generate(inst.Prog, tr, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, sched := range []gpusim.Scheduler{gpusim.GTO, gpusim.LRR} {
		sched := sched
		b.Run(sched.String(), func(b *testing.B) {
			// Shrink the device so SMs hold several warps each; with one
			// warp per SM the scheduling policy cannot matter.
			cfg := gpusim.RTX3070()
			cfg.NumSMs = 2
			cfg.Scheduler = sched
			var res *gpusim.Result
			for i := 0; i < b.N; i++ {
				res, err = gpusim.Run(kt, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(res.IPC, "ipc")
		})
	}
}

// BenchmarkAblationMachine runs the same kernel on the GPU-class and
// CPU-adjacent SIMT configurations (the section V-B design space).
func BenchmarkAblationMachine(b *testing.B) {
	w, err := workloads.ByName("usuite.textsearch.mid")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 1, Threads: 256})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		b.Fatal(err)
	}
	kt, err := simtrace.Generate(inst.Prog, tr, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []gpusim.Config{gpusim.RTX3070(), gpusim.SmallSIMT()} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var res *gpusim.Result
			for i := 0; i < b.N; i++ {
				res, err = gpusim.Run(kt, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
		})
	}
}

// BenchmarkAnalyzerThroughput measures raw analyzer speed in traced
// instructions per second — the paper's 2-6x-native tracing overhead claim
// is about the tracer; this is the analysis side.
func BenchmarkAnalyzerThroughput(b *testing.B) {
	w, err := workloads.ByName("parsec.vips")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(tr, core.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.TotalInstructions()))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationLockReconvergence compares critical-section
// reconvergence policies — the investigation the paper defers to future
// research ("different choices of reconvergence points may have varying
// effects on the control flow efficiency").
func BenchmarkAblationLockReconvergence(b *testing.B) {
	for _, pol := range []simt.LockReconvergence{simt.ReconvergeAtRelease, simt.ReconvergeAtFunctionExit} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			rep := benchAnalyze(b, "usuite.mcrouter.memcached", func(o *core.Options) {
				o.EmulateLocks = true
				o.LockReconvergence = pol
			})
			b.ReportMetric(rep.Efficiency, "efficiency")
		})
	}
}

// ------------------------------------------------ replay and decode benchmarks

// microBench caches the replay and decode rows' one fixture: parsec.vips at
// its Table-I thread count (512 threads, 16 warps of 32), encoded once as
// v1, v2 and v3. The replay input is the v3 bytes decoded into an arena,
// prepared by a session and given its packed control-word columns, as the
// analyzer prepares what it replays, so the replay rows time the SIMT-stack
// replay alone.
var microBench struct {
	once       sync.Once
	v1, v2, v3 []byte
	tr         *trace.Trace
	graphs     map[uint32]*cfg.DCFG
	pdoms      map[uint32]*ipdom.PostDom
	warps      []warp.Warp
	err        error
}

func microBenchSetup(b *testing.B) {
	b.Helper()
	microBench.once.Do(func() { microBench.err = buildMicroBench() })
	if microBench.err != nil {
		b.Fatal(microBench.err)
	}
}

func buildMicroBench() error {
	m := &microBench
	w, err := workloads.ByName("parsec.vips")
	if err != nil {
		return err
	}
	inst, err := w.Instantiate(workloads.Config{Seed: 1, Threads: w.PaperThreads})
	if err != nil {
		return err
	}
	src, err := inst.Trace()
	if err != nil {
		return err
	}
	for v, dst := range []*[]byte{&m.v1, &m.v2, &m.v3} {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, src, v+1); err != nil {
			return err
		}
		*dst = buf.Bytes()
	}
	if m.tr, err = trace.Decode(bytes.NewReader(m.v3)); err != nil {
		return err
	}
	if m.graphs, m.pdoms, err = core.NewSession().Prepared(m.tr); err != nil {
		return err
	}
	m.warps, err = warp.Form(m.tr, 32, warp.RoundRobin)
	return err
}

// requireFanOut fails a parallel row whose fixture has too few items for
// pool.Workers to fan out on a multi-core machine: the row would time the
// serial path under a parallel name.
func requireFanOut(b *testing.B, items int) {
	b.Helper()
	if procs := runtime.GOMAXPROCS(0); procs > 1 && pool.Workers(0, items) == 1 {
		b.Fatalf("%d work items resolve to one worker at GOMAXPROCS %d", items, procs)
	}
}

// fusionPairs is how many fused and unfused replays benchReplay alternates
// to measure fusion_speedup.
const fusionPairs = 20

// benchReplay sets the bytes of an op to the traced instruction count, so
// the MB/s go test prints is millions of traced instructions per second.
// After the timed loop it alternates fusionPairs fused replays with as many
// DisableLockstepFusion ones and reports fusion_speedup, the unfused
// replays' time over the fused ones'. Load on the machine slows both
// halves of a pair alike, so the ratio keeps the engines apart where a
// throughput floor cannot: it reads about 2 fused and 1 with fusion forced
// off.
func benchReplay(b *testing.B, parallelism int) {
	microBenchSetup(b)
	m := &microBench
	fused := simt.Options{WarpSize: 32, Parallelism: parallelism}
	unfused := fused
	unfused.DisableLockstepFusion = true
	replay := func(opts simt.Options) time.Duration {
		start := time.Now()
		if _, err := simt.Replay(m.tr, m.graphs, m.pdoms, m.warps, opts); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	b.SetBytes(int64(m.tr.TotalInstructions()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(fused)
	}
	b.StopTimer()
	var tFused, tUnfused time.Duration
	for i := 0; i < fusionPairs; i++ {
		tFused += replay(fused)
		tUnfused += replay(unfused)
	}
	b.ReportMetric(float64(tUnfused)/float64(tFused), "fusion_speedup")
}

// BenchmarkReplaySerial measures single-worker replay throughput.
func BenchmarkReplaySerial(b *testing.B) {
	benchReplay(b, 1)
}

// BenchmarkReplayParallel fans warps out over one worker per core. Output is
// bit-identical to the serial path; only wall-clock differs.
func BenchmarkReplayParallel(b *testing.B) {
	microBenchSetup(b)
	requireFanOut(b, len(microBench.warps))
	benchReplay(b, 0)
}

func benchDecodeSerial(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeV1Serial(b *testing.B) {
	microBenchSetup(b)
	benchDecodeSerial(b, microBench.v1)
}

func BenchmarkDecodeV2Serial(b *testing.B) {
	microBenchSetup(b)
	benchDecodeSerial(b, microBench.v2)
}

// BenchmarkDecodeV3Serial decodes the indexed format serially, its table
// sizes taken from the index footer.
func BenchmarkDecodeV3Serial(b *testing.B) {
	microBenchSetup(b)
	benchDecodeSerial(b, microBench.v3)
}

// BenchmarkDecodeV3Parallel fans per-thread section decoding over one worker
// per core using the v3 index (DecodeStrict runs the same decode as the
// lenient readers on a valid v3 input). The decoded trace is identical to
// the serial path; only wall-clock differs.
func BenchmarkDecodeV3Parallel(b *testing.B) {
	microBenchSetup(b)
	requireFanOut(b, len(microBench.tr.Threads))
	data := microBench.v3
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeStrict(bytes.NewReader(data), int64(len(data)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFileV3 measures ReadFileParallel on the microBench trace's
// v3 file, one worker per core: the decode tfanalyze runs on an indexed
// file, its thread sections read straight from the file in runs. Its MB/s
// are file bytes per second; bytes/op is the arena's tables plus the runs'
// read buffers, without a copy of the file.
func BenchmarkReadFileV3(b *testing.B) {
	microBenchSetup(b)
	data := microBench.v3
	path := filepath.Join(b.TempDir(), "vips.tft")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadFileParallel(path, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare measures the analyzer's ingest preparation of the
// microBench trace: a fresh session's Prepared validates every thread, then
// builds the merged DCFGs and their post-dominator trees. It reports ms/op
// beside ns/op; allocs/op and bytes/op count the preparation's own
// allocations, which do not grow with the trace's records: the decoder
// wrote their control words.
func BenchmarkPrepare(b *testing.B) {
	microBenchSetup(b)
	tr := microBench.tr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.NewSession().Prepared(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
}

// ------------------------------------------------------- digest benchmark

// digestBench caches a Table-I-scale microservice trace (dsb.post at its
// paper thread count), the size of its v1 file and its v1 and v3 bytes.
var digestBench struct {
	once   sync.Once
	tr     *trace.Trace
	v1Size int
	v1, v3 []byte
	err    error
}

// digestSink keeps the compiler from discarding the measured digest.
var digestSink string

// digestTrace returns digestBench's trace and its v1 size, building them
// on first use.
func digestTrace(b *testing.B) (*trace.Trace, int) {
	digestBench.once.Do(func() {
		w, err := workloads.ByName("dsb.post")
		if err != nil {
			digestBench.err = err
			return
		}
		inst, err := w.Instantiate(workloads.Config{Seed: 1, Threads: w.PaperThreads})
		if err != nil {
			digestBench.err = err
			return
		}
		if digestBench.tr, err = inst.Trace(); err != nil {
			digestBench.err = err
			return
		}
		var buf bytes.Buffer
		if digestBench.err = trace.Encode(&buf, digestBench.tr, 1); digestBench.err != nil {
			return
		}
		digestBench.v1, digestBench.v1Size = buf.Bytes(), buf.Len()
		buf = bytes.Buffer{}
		digestBench.err = trace.Encode(&buf, digestBench.tr, 3)
		digestBench.v3 = buf.Bytes()
	})
	if digestBench.err != nil {
		b.Fatal(digestBench.err)
	}
	return digestBench.tr, digestBench.v1Size
}

// BenchmarkTraceDigest measures the report-cache key's trace digest, the
// hash tfserve pays on every upload, hit or miss. Its MB/s are v1 file
// bytes per second, the same unit as the decode rows.
func BenchmarkTraceDigest(b *testing.B) {
	tr, v1Size := digestTrace(b)
	b.SetBytes(int64(v1Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.TraceDigest(tr)
		if err != nil {
			b.Fatal(err)
		}
		digestSink = d
	}
}

// canonicalSink keeps the compiler from discarding the measured sum.
var canonicalSink [32]byte

// BenchmarkCanonicalDigest measures keying digestBench's v3 bytes without
// decoding them, the work a tfserve upload of a v2/v3 file pays before its
// cache lookup. Its MB/s are the v3 file bytes it reads per second, the
// unit of the decode rows.
func BenchmarkCanonicalDigest(b *testing.B) {
	digestTrace(b)
	benchCanonicalKey(b, digestBench.v3)
}

// BenchmarkCanonicalDigestV1 is BenchmarkCanonicalDigest over digestBench's
// v1 bytes, whose raw addresses the keying walk rewrites as deltas: the
// work a tfserve upload of a v1 file pays before its cache lookup. Its MB/s
// are the v1 file bytes it reads per second.
func BenchmarkCanonicalDigestV1(b *testing.B) {
	digestTrace(b)
	benchCanonicalKey(b, digestBench.v1)
}

// benchCanonicalKey times trace.CanonicalKey over data, in data's bytes.
func benchCanonicalKey(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, ok := trace.CanonicalKey(data)
		if !ok {
			b.Fatal("CanonicalKey refused Encode's output")
		}
		canonicalSink = k.Sum
	}
}

// BenchmarkIngestV3 measures the ingest of a Table-I-scale indexed file:
// OpenFile on digestBench's v3 bytes, then Session.Ingest, which decodes the
// trace with its sections read straight from the file and prepares it
// (validation, DCFGs, post-dominator trees) on one worker per core. Its
// MB/s are v3 file bytes per second, the unit of the decode rows; bytes/op
// is the arena's tables, the run buffers and the preparation.
func BenchmarkIngestV3(b *testing.B) {
	digestTrace(b)
	data := digestBench.v3
	path := filepath.Join(b.TempDir(), "post.tft")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		_, err = core.NewSession().Ingest(r, 0)
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeV3 measures writing digestBench's trace as an indexed v3
// file, the work behind WriteFileIndexed and tftrace -index. Its MB/s are v1
// file bytes per second, the same unit as trace_digest.
func BenchmarkEncodeV3(b *testing.B) {
	tr, v1Size := digestTrace(b)
	b.SetBytes(int64(v1Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.Encode(io.Discard, tr, 3); err != nil {
			b.Fatal(err)
		}
	}
}
