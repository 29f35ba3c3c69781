package report

import (
	"fmt"

	"threadfuser/internal/core"
	"threadfuser/internal/stats"
	"threadfuser/internal/workloads"
)

// ---------------------------------------------------------------- Figure 7

// Fig7Func is one per-function row of the HDSearch-Midtier breakdown.
type Fig7Func struct {
	Name       string
	InstrShare float64
	Efficiency float64
}

// Fig7Data is the HDSearch-Midtier case study: the per-function breakdown
// that pinpoints getpoint, and the before/after of the SIMT-aware fix.
type Fig7Data struct {
	Funcs         []Fig7Func
	OriginalEff   float64
	FixedEff      float64
	GetpointShare float64
	GetpointEff   float64
}

// Fig7 reproduces the figure-7 analysis on usuite.hdsearch.mid and its
// fixed variant.
func Fig7(s Scale) (*Fig7Data, error) {
	w, err := workloads.ByName("usuite.hdsearch.mid")
	if err != nil {
		return nil, err
	}
	fw, err := workloads.ByName("usuite.hdsearch.mid.fixed")
	if err != nil {
		return nil, err
	}
	// The original and fixed variants are independent analyses.
	variants := []*workloads.Workload{w, fw}
	reps := make([]*core.Report, len(variants))
	if err := s.each(len(variants), func(i int) error {
		var err error
		reps[i], _, _, err = analyze(variants[i], s, 32, false)
		return err
	}); err != nil {
		return nil, err
	}
	rep, frep := reps[0], reps[1]
	d := &Fig7Data{OriginalEff: rep.Efficiency, FixedEff: frep.Efficiency}
	for _, f := range rep.PerFunction {
		d.Funcs = append(d.Funcs, Fig7Func{Name: f.Name, InstrShare: f.InstrShare, Efficiency: f.Efficiency})
		if f.Name == "getpoint" {
			d.GetpointShare = f.InstrShare
			d.GetpointEff = f.Efficiency
		}
	}
	return d, nil
}

// Render formats the case study.
func (d *Fig7Data) Render() string {
	t := newTable("function", "instr share", "SIMT efficiency")
	for _, f := range d.Funcs {
		t.add(f.Name, pct(f.InstrShare), pct(f.Efficiency))
	}
	return fmt.Sprintf("Figure 7: HDSearch-Midtier per-function analysis\n%s\noverall efficiency %s -> %s after pinning getpoint trip counts (paper: 7%% -> 90%%)\n",
		t.String(), pct(d.OriginalEff), pct(d.FixedEff))
}

// ---------------------------------------------------------------- Figure 8

// Fig8Row is one microservice's traced/skipped split.
type Fig8Row struct {
	Workload  string
	TracedPct float64
	IOPct     float64
	SpinPct   float64
}

// Fig8Data is the skipped-instruction distribution.
type Fig8Data struct {
	Rows    []Fig8Row
	GeoMean float64 // geometric mean of traced fractions (paper: ~90%)
}

// Fig8 measures the percentage of instructions traced versus skipped (I/O
// and lock spinning) for the microservice workloads.
func Fig8(s Scale) (*Fig8Data, error) {
	ws := workloads.Microservices()
	d := &Fig8Data{Rows: make([]Fig8Row, len(ws))}
	fracs := make([]float64, len(ws))
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		rep, _, _, err := analyze(w, s, 32, false)
		if err != nil {
			return err
		}
		total := float64(rep.TotalInstrs + rep.SkippedIO + rep.SkippedSpin)
		row := Fig8Row{
			Workload:  w.Name,
			TracedPct: rep.TracedPercent,
		}
		if total > 0 {
			row.IOPct = 100 * float64(rep.SkippedIO) / total
			row.SpinPct = 100 * float64(rep.SkippedSpin) / total
		}
		fracs[i] = rep.TracedPercent / 100
		d.Rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	// fracs is index-addressed, so the geometric mean sees the same
	// workload order as the serial path.
	d.GeoMean = stats.GeoMean(fracs)
	return d, nil
}

// Render formats the traced/skipped distribution.
func (d *Fig8Data) Render() string {
	t := newTable("workload", "traced", "skipped I/O", "skipped spin")
	for _, r := range d.Rows {
		t.add(r.Workload,
			fmt.Sprintf("%5.1f%%", r.TracedPct),
			fmt.Sprintf("%5.1f%%", r.IOPct),
			fmt.Sprintf("%5.1f%%", r.SpinPct))
	}
	return fmt.Sprintf("Figure 8: Traced vs skipped instructions (microservices)\n%sGEOMEAN traced: %s (paper: ~90%%)\n",
		t.String(), pct(d.GeoMean))
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row compares one microservice's efficiency with and without
// intra-warp lock emulation.
type Fig9Row struct {
	Workload     string
	EffFineGrain float64 // locks assumed uncontended (default reporting)
	EffEmulated  float64 // contended critical sections serialized
}

// Fig9Data is the lock-emulation study.
type Fig9Data struct {
	Rows []Fig9Row
}

// Fig9 measures warp efficiency of the microservice workloads when
// intra-warp locking is emulated (paper figure 9; warp size 32).
func Fig9(s Scale) (*Fig9Data, error) {
	ws := workloads.Microservices()
	d := &Fig9Data{Rows: make([]Fig9Row, len(ws))}
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		// Trace once; a session shares the DCFG/IPDOM products and warp
		// formation between the fine-grain and lock-emulated analyses,
		// which differ only in replay options.
		inst, err := w.Instantiate(s.config(w))
		if err != nil {
			return err
		}
		tr, err := inst.Trace()
		if err != nil {
			return err
		}
		sess := s.session()
		base, err := sess.Analyze(tr, s.options(32, false))
		if err != nil {
			return err
		}
		emu, err := sess.Analyze(tr, s.options(32, true))
		if err != nil {
			return err
		}
		d.Rows[i] = Fig9Row{
			Workload:     w.Name,
			EffFineGrain: base.Efficiency,
			EffEmulated:  emu.Efficiency,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Render formats the lock study.
func (d *Fig9Data) Render() string {
	t := newTable("workload", "eff (fine-grain)", "eff (locks emulated)", "drop")
	for _, r := range d.Rows {
		t.add(r.Workload, pct(r.EffFineGrain), pct(r.EffEmulated), pct(r.EffFineGrain-r.EffEmulated))
	}
	return "Figure 9: Warp efficiency with intra-warp locking emulated (warp=32)\n" + t.String()
}

// --------------------------------------------------------------- Figure 10

// Fig10Row is one workload's memory-divergence measurement.
type Fig10Row struct {
	Workload   string
	HeapTxPer  float64 // transactions per heap load/store instruction
	StackTxPer float64 // transactions per stack load/store instruction
}

// Fig10Data is the memory-divergence dataset.
type Fig10Data struct {
	Rows []Fig10Row
}

// Fig10 measures memory transactions per load/store instruction, split by
// heap and stack segment, at warp size 32 (paper figure 10).
func Fig10(s Scale) (*Fig10Data, error) {
	ws := workloads.Microservices()
	d := &Fig10Data{Rows: make([]Fig10Row, len(ws))}
	if err := s.each(len(ws), func(i int) error {
		w := ws[i]
		rep, _, _, err := analyze(w, s, 32, false)
		if err != nil {
			return err
		}
		d.Rows[i] = Fig10Row{
			Workload:   w.Name,
			HeapTxPer:  rep.HeapTxPerInstr,
			StackTxPer: rep.StackTxPerInstr,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Render formats the memory-divergence table.
func (d *Fig10Data) Render() string {
	t := newTable("workload", "heap tx/instr", "stack tx/instr")
	for _, r := range d.Rows {
		t.add(r.Workload, f2(r.HeapTxPer), f2(r.StackTxPer))
	}
	return "Figure 10: Memory transactions per load/store (warp=32; ideal is 8 for 8-byte lanes)\n" + t.String()
}

// ---------------------------------------------------------------- Table II

// Table2Data is the XAPP-vs-ThreadFuser accuracy summary. The XAPP column
// holds the numbers the paper cites for XAPP; the ThreadFuser column holds
// this reproduction's measured values.
type Table2Data struct {
	// Measured by this reproduction.
	EffMAEO1    float64 // paper: 3%
	MemMAEO1    float64 // paper: 17%
	SpeedupCorr float64 // paper: 0.97
	ExecTimeMAE float64 // paper: 33%
	// Cited from the paper for XAPP.
	XAPPExecTimeErr float64 // 26.9%
}

// Table2 assembles the accuracy comparison from the figure-5 and figure-6
// measurements.
func Table2(s Scale) (*Table2Data, error) {
	effData, err := Fig5a(s)
	if err != nil {
		return nil, err
	}
	memData, err := Fig5b(s)
	if err != nil {
		return nil, err
	}
	spdData, err := Fig6(s)
	if err != nil {
		return nil, err
	}
	d := &Table2Data{
		SpeedupCorr:     spdData.SpeedupCorrelation,
		ExecTimeMAE:     spdData.ExecTimeMAE,
		XAPPExecTimeErr: 0.269,
	}
	for _, l := range effData.Levels {
		if l.Level.String() == "O1" {
			d.EffMAEO1 = l.MAE
		}
	}
	for _, l := range memData.Levels {
		if l.Level.String() == "O1" {
			d.MemMAEO1 = l.MAE
		}
	}
	return d, nil
}

// Render formats the comparison.
func (d *Table2Data) Render() string {
	t := newTable("metric", "XAPP (cited)", "ThreadFuser (measured)", "ThreadFuser (paper)")
	t.add("input", "CPU code", "CPU MIMD traces", "CPU MIMD traces")
	t.add("analysis", "profiling, ML-based", "dynamic CFG", "dynamic CFG")
	t.add("SIMT efficiency error", "-", pct(d.EffMAEO1), " 3.0%")
	t.add("memory error", "-", pct(d.MemMAEO1), "17.0%")
	t.add("speedup projection corr", "-", f3(d.SpeedupCorr), "0.97")
	t.add("execution time error", pct(d.XAPPExecTimeErr), pct(d.ExecTimeMAE), "33.0%")
	t.add("hardware support", "only GPUs", "any SIMT hardware", "any SIMT hardware")
	return "Table II: XAPP vs ThreadFuser\n" + t.String()
}
