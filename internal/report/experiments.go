package report

import (
	"fmt"
	"math"

	"threadfuser/internal/core"
	"threadfuser/internal/cpusim"
	"threadfuser/internal/gpusim"
	"threadfuser/internal/opt"
	"threadfuser/internal/pool"
	"threadfuser/internal/simtrace"
	"threadfuser/internal/stats"
	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

// Scale configures experiment sizes. The zero value uses each workload's
// reduced default; Full uses the paper's Table-I thread counts.
type Scale struct {
	// Threads overrides every workload's thread count when non-zero.
	Threads int
	// Full runs each workload at its Table-I thread count.
	Full bool
	// Seed drives input generation.
	Seed int64
	// Parallel bounds both the per-experiment cell pool (independent
	// workload×configuration cells run concurrently) and each replay's
	// worker count. 0 means one worker per core; 1 runs everything
	// serially. Results are identical at any setting: cells write into
	// index-addressed slots and cross-cell statistics are aggregated
	// serially in the original order.
	Parallel int
	// Cache, if set, serves replay reports for (trace, options) pairs the
	// cache has seen before and stores new ones. Tracing and the hardware
	// oracle still run; only analyzer replays are skipped.
	Cache *core.Cache
}

func (s Scale) config(w *workloads.Workload) workloads.Config {
	cfg := workloads.Config{Seed: s.Seed, Threads: s.Threads}
	if s.Full && w.PaperThreads > 0 {
		cfg.Threads = w.PaperThreads
	}
	return cfg
}

// options builds the analyzer options for one experiment cell.
func (s Scale) options(warpSize int, locks bool) core.Options {
	opts := core.Defaults()
	opts.WarpSize = warpSize
	opts.EmulateLocks = locks
	opts.Parallelism = s.Parallel
	return opts
}

// each runs an experiment's n independent cells on at most s.Parallel
// workers. Cells write index-addressed slots; a failure is the first failing
// cell's in index order, as in a serial loop.
func (s Scale) each(n int, cell func(i int) error) error {
	_, err := pool.ForEach(s.Parallel, n, func(_, i int) error { return cell(i) })
	return err
}

// analyze traces and analyzes one workload.
func analyze(w *workloads.Workload, s Scale, warpSize int, locks bool) (*core.Report, *trace.Trace, *workloads.Instance, error) {
	inst, err := w.Instantiate(s.config(w))
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := inst.Trace()
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := s.session().Analyze(tr, s.options(warpSize, locks))
	return rep, tr, inst, err
}

// session returns a fresh analysis session wired to the scale's cache.
func (s Scale) session() *core.Session {
	sess := core.NewSession()
	sess.SetCache(s.Cache)
	return sess
}

// ---------------------------------------------------------------- Figure 1

// Fig1Row is one workload's efficiency at the three warp widths.
type Fig1Row struct {
	Workload string
	Suite    string
	Eff8     float64
	Eff16    float64
	Eff32    float64
}

// Fig1Data is the figure-1 dataset.
type Fig1Data struct {
	Rows []Fig1Row
}

// Fig1 estimates SIMT efficiency for the 36 MIMD applications at warp
// sizes 8, 16 and 32 (the paper's headline figure). Workload rows run
// concurrently; within one row a core.Session traces the workload once and
// shares the DCFG/IPDOM products across the three warp-width points.
func Fig1(s Scale) (*Fig1Data, error) {
	ws := workloads.TableI()
	d := &Fig1Data{Rows: make([]Fig1Row, len(ws))}
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		row := Fig1Row{Workload: w.Name, Suite: w.Suite}
		inst, err := w.Instantiate(s.config(w))
		if err != nil {
			return err
		}
		tr, err := inst.Trace()
		if err != nil {
			return err
		}
		sess := s.session()
		for _, width := range []int{8, 16, 32} {
			rep, err := sess.Analyze(tr, s.options(width, false))
			if err != nil {
				return err
			}
			switch width {
			case 8:
				row.Eff8 = rep.Efficiency
			case 16:
				row.Eff16 = rep.Efficiency
			case 32:
				row.Eff32 = rep.Efficiency
			}
		}
		d.Rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Render formats the figure-1 series.
func (d *Fig1Data) Render() string {
	t := newTable("workload", "suite", "eff@8", "eff@16", "eff@32")
	for _, r := range d.Rows {
		t.add(r.Workload, r.Suite, pct(r.Eff8), pct(r.Eff16), pct(r.Eff32))
	}
	return "Figure 1: Estimated SIMT efficiency, warp sizes 8/16/32\n" + t.String()
}

// ---------------------------------------------------------------- Table I

// Table1Row is one catalog entry.
type Table1Row struct {
	Workload     string
	Suite        string
	SIMTThreads  int
	GPUTwin      bool
	Microservice bool
	Desc         string
}

// Table1Data is the workload catalog.
type Table1Data struct {
	Rows []Table1Row
}

// Table1 reproduces the paper's Table I.
func Table1() *Table1Data {
	d := &Table1Data{}
	for _, w := range workloads.TableI() {
		d.Rows = append(d.Rows, Table1Row{
			Workload:     w.Name,
			Suite:        w.Suite,
			SIMTThreads:  w.PaperThreads,
			GPUTwin:      w.HasGPUImpl,
			Microservice: w.Microservice,
			Desc:         w.Desc,
		})
	}
	return d
}

// Render formats Table I.
func (d *Table1Data) Render() string {
	t := newTable("workload", "suite", "#SIMT threads", "GPU twin", "usvc")
	for _, r := range d.Rows {
		twin, usvc := "", ""
		if r.GPUTwin {
			twin = "yes"
		}
		if r.Microservice {
			usvc = "yes"
		}
		t.add(r.Workload, r.Suite, fmt.Sprintf("%d", r.SIMTThreads), twin, usvc)
	}
	return "Table I: Studied workloads\n" + t.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Point is one (workload, optimization level) sample.
type Fig5Point struct {
	Workload  string
	Level     opt.Level
	Predicted float64
	Hardware  float64
}

// Fig5LevelStats summarizes one optimization level's agreement.
type Fig5LevelStats struct {
	Level   opt.Level
	Pearson float64
	MAE     float64
}

// Fig5Data holds either the efficiency (5a) or memory (5b) correlation.
type Fig5Data struct {
	Metric string // "SIMT efficiency" or "heap transactions"
	Points []Fig5Point
	Levels []Fig5LevelStats
	// ErrStdDev and WithinOneSD mirror the paper's consistency stats
	// ("std value is approximately 6% ... 83% within one standard
	// deviation").
	ErrStdDev   float64
	WithinOneSD float64
}

// Fig5a correlates analyzer-predicted SIMT efficiency against the lockstep
// hardware oracle across gcc-style optimization levels, for the 11
// correlation workloads (paper figure 5a).
func Fig5a(s Scale) (*Fig5Data, error) {
	return fig5(s, "SIMT efficiency", func(rep *core.Report) float64 {
		return rep.Efficiency
	}, func(hw *hwMeasurement) float64 {
		return hw.efficiency
	}, false)
}

// Fig5b correlates predicted total 32-byte heap transactions against the
// oracle (paper figure 5b; the paper's plot is log-log, so the Pearson
// coefficient is computed on log10 values).
func Fig5b(s Scale) (*Fig5Data, error) {
	return fig5(s, "heap transactions", func(rep *core.Report) float64 {
		return float64(rep.HeapTx)
	}, func(hw *hwMeasurement) float64 {
		return float64(hw.heapTx)
	}, true)
}

type hwMeasurement struct {
	efficiency float64
	heapTx     uint64
}

func fig5(s Scale, metric string, pred func(*core.Report) float64, ref func(*hwMeasurement) float64, logScale bool) (*Fig5Data, error) {
	d := &Fig5Data{Metric: metric}
	perLevel := map[opt.Level][2][]float64{}
	var allErrs []float64

	// Each workload's cell (hardware oracle + one analysis per optimization
	// level) is independent: run them concurrently into index-addressed
	// slots, then aggregate serially in workload order so the statistics
	// see samples in exactly the serial order.
	ws := workloads.Correlation()
	cells := make([][]Fig5Point, len(ws))
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		inst, err := w.Instantiate(s.config(w))
		if err != nil {
			return err
		}
		// Hardware oracle: lockstep execution of the nvcc-like build.
		hwInst := inst.WithProgram(opt.HardwareBuild(inst.Prog))
		hwRes, err := hwInst.RunHardware(32, nil)
		if err != nil {
			return fmt.Errorf("report: %s oracle: %w", w.Name, err)
		}
		hw := &hwMeasurement{
			efficiency: hwRes.Efficiency(),
			heapTx:     hwRes.Total().HeapTx,
		}
		pts := make([]Fig5Point, 0, len(opt.Levels))
		for _, lvl := range opt.Levels {
			tr, err := inst.WithProgram(opt.Apply(inst.Prog, lvl)).Trace()
			if err != nil {
				return err
			}
			rep, err := s.session().Analyze(tr, s.options(32, false))
			if err != nil {
				return err
			}
			pts = append(pts, Fig5Point{
				Workload:  w.Name,
				Level:     lvl,
				Predicted: pred(rep),
				Hardware:  ref(hw),
			})
		}
		cells[i] = pts
		return nil
	}); err != nil {
		return nil, err
	}
	for _, pts := range cells {
		for _, p := range pts {
			d.Points = append(d.Points, p)
			pair := perLevel[p.Level]
			x, y := p.Predicted, p.Hardware
			if logScale {
				x, y = math.Log10(math.Max(x, 1)), math.Log10(math.Max(y, 1))
			}
			pair[0] = append(pair[0], x)
			pair[1] = append(pair[1], y)
			perLevel[p.Level] = pair
			if p.Hardware != 0 {
				allErrs = append(allErrs, math.Abs(p.Predicted-p.Hardware)/p.Hardware)
			}
		}
	}
	for _, lvl := range opt.Levels {
		pair := perLevel[lvl]
		r, err := stats.Pearson(pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		var mae float64
		if logScale {
			// Relative error on the raw metric, like the paper's 17%.
			var preds, refs []float64
			for _, p := range d.Points {
				if p.Level == lvl {
					preds = append(preds, p.Predicted)
					refs = append(refs, p.Hardware)
				}
			}
			mae, _ = stats.MAE(preds, refs)
		} else {
			var preds, refs []float64
			for _, p := range d.Points {
				if p.Level == lvl {
					preds = append(preds, p.Predicted)
					refs = append(refs, p.Hardware)
				}
			}
			mae, _ = stats.MAEAbs(preds, refs)
		}
		d.Levels = append(d.Levels, Fig5LevelStats{Level: lvl, Pearson: r, MAE: mae})
	}
	d.ErrStdDev = stats.StdDev(allErrs)
	d.WithinOneSD = stats.WithinOneStdDev(allErrs)
	return d, nil
}

// Render formats a figure-5 dataset.
func (d *Fig5Data) Render() string {
	t := newTable("level", "Pearson corr", "MAE")
	for _, l := range d.Levels {
		t.add(l.Level.String(), f3(l.Pearson), pct(l.MAE))
	}
	pts := newTable("workload", "level", "predicted", "hardware")
	for _, p := range d.Points {
		pts.add(p.Workload, p.Level.String(), f3(p.Predicted), f3(p.Hardware))
	}
	return fmt.Sprintf("Figure 5 (%s) correlation vs hardware oracle\n%s\nerror std dev %s, %s of samples within one std dev\n\n%s",
		d.Metric, t.String(), pct(d.ErrStdDev), pct(d.WithinOneSD), pts.String())
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one workload's projected speedup.
type Fig6Row struct {
	Workload string
	// TFSpeedup is the CPU-trace path (ThreadFuser warp traces through
	// the SIMT simulator, normalized to the multicore CPU model).
	TFSpeedup float64
	// CUDASpeedup is the native-GPU-trace path, present for the 11
	// correlation workloads (0 otherwise).
	CUDASpeedup float64
	GPUCycles   uint64
	CPUCycles   uint64
}

// Fig6Data is the speedup projection dataset.
type Fig6Data struct {
	Rows []Fig6Row
	// Correlation between the two series over the workloads that have
	// both (the paper quotes 0.97).
	SpeedupCorrelation float64
	// ExecTimeMAE is the relative cycle error between the ThreadFuser and
	// native paths (the paper quotes 33% execution-time error).
	ExecTimeMAE float64
}

// Fig6 projects speedups for the Table-I workloads using the SIMT timing
// simulator with the RTX-3070-like configuration, normalized to the
// multicore CPU baseline; the 11 correlation workloads also run the
// native-trace path (paper figure 6). Following the paper's methodology,
// the CPU side is the -O3 build ("compilation is carried out using gcc with
// the -O3 optimization"), while the native path runs the GPU-toolchain
// build — the toolchain gap is what separates the two series.
func Fig6(s Scale) (*Fig6Data, error) {
	gcfg := gpusim.RTX3070()
	ccfg := cpusim.Xeon20()
	var tfS, cuS, tfC, cuC []float64

	// Workload cells are independent (trace, warp-trace generation, timing
	// simulation): run them concurrently into index-addressed rows, then
	// build the correlation series serially in workload order.
	ws := workloads.TableI()
	d := &Fig6Data{Rows: make([]Fig6Row, len(ws))}
	natives := make([]uint64, len(ws)) // native-path GPU cycles, GPU twins only
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		inst, err := w.Instantiate(s.config(w))
		if err != nil {
			return err
		}
		cpuInst := inst.WithProgram(opt.Apply(inst.Prog, opt.O3))
		tr, err := cpuInst.Trace()
		if err != nil {
			return err
		}
		kt, err := simtrace.Generate(cpuInst.Prog, tr, 32)
		if err != nil {
			return err
		}
		gr, err := gpusim.Run(kt, gcfg)
		if err != nil {
			return fmt.Errorf("report: %s gpusim: %w", w.Name, err)
		}
		c, err := cpusim.Run(tr, ccfg)
		if err != nil {
			return err
		}
		row := Fig6Row{
			Workload:  w.Name,
			GPUCycles: gr.Cycles,
			CPUCycles: c.Cycles,
			TFSpeedup: float64(c.Cycles) / float64(gr.Cycles),
		}
		if w.HasGPUImpl {
			// Native path: lockstep-collected ("nvbit") trace of the
			// nvcc-like hardware build.
			hwInst := inst.WithProgram(opt.HardwareBuild(inst.Prog))
			p2, args2, err := hwInst.NewProcess()
			if err != nil {
				return err
			}
			nkt, err := simtrace.FromHardware(p2, hwInst.Threads(), 32, args2)
			if err != nil {
				return err
			}
			ng, err := gpusim.Run(nkt, gcfg)
			if err != nil {
				return err
			}
			row.CUDASpeedup = float64(c.Cycles) / float64(ng.Cycles)
			natives[i] = ng.Cycles
		}
		d.Rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	for i, w := range ws {
		if w.HasGPUImpl {
			tfS = append(tfS, d.Rows[i].TFSpeedup)
			cuS = append(cuS, d.Rows[i].CUDASpeedup)
			tfC = append(tfC, float64(d.Rows[i].GPUCycles))
			cuC = append(cuC, float64(natives[i]))
		}
	}
	var err error
	if d.SpeedupCorrelation, err = stats.Pearson(tfS, cuS); err != nil {
		return nil, err
	}
	if d.ExecTimeMAE, err = stats.MAE(tfC, cuC); err != nil {
		return nil, err
	}
	return d, nil
}

// Render formats the figure-6 series.
func (d *Fig6Data) Render() string {
	t := newTable("workload", "TF speedup", "CUDA speedup", "gpu cycles", "cpu cycles")
	for _, r := range d.Rows {
		cuda := ""
		if r.CUDASpeedup != 0 {
			cuda = f2(r.CUDASpeedup)
		}
		t.add(r.Workload, f2(r.TFSpeedup), cuda, count(r.GPUCycles), count(r.CPUCycles))
	}
	return fmt.Sprintf("Figure 6: Projected speedup vs multicore CPU (RTX-3070-like config)\n%s\nspeedup correlation (11 GPU twins): %s   exec-time MAE: %s\n",
		t.String(), f3(d.SpeedupCorrelation), pct(d.ExecTimeMAE))
}
