package report

import (
	"fmt"

	"threadfuser/internal/gpusim"
	"threadfuser/internal/simtrace"
	"threadfuser/internal/workloads"
)

// The ext* experiments go beyond the paper's figures, using the same
// infrastructure to answer the questions its section V-B raises: what does
// warp occupancy actually look like inside inefficient workloads, and how
// many SIMT cores does a workload class need?

// extWorkloads is the mixed set the extension studies run over.
var extWorkloads = []string{
	"paropoly.nbody",
	"usuite.textsearch.mid",
	"usuite.hdsearch.mid",
	"rodinia.bfs",
	"other.pigz",
}

// Ext1Row is one workload's occupancy distribution summary.
type Ext1Row struct {
	Workload   string
	Efficiency float64
	// FullPct / SinglePct are the fractions of warp instructions issued
	// with all lanes active and with exactly one lane active.
	FullPct   float64
	SinglePct float64
	// MedianLanes is the median active-lane count over warp instructions.
	MedianLanes int
}

// Ext1Data is the occupancy-histogram study.
type Ext1Data struct {
	WarpSize int
	Rows     []Ext1Row
}

// Ext1 summarizes active-lane occupancy distributions: two workloads with
// the same equation-1 efficiency can have very different histograms (evenly
// half-full warps vs full warps plus serialized single-lane tails), and the
// histogram says which hardware remedy — smaller warps vs dynamic warp
// compaction — would help.
func Ext1(s Scale) (*Ext1Data, error) {
	d := &Ext1Data{WarpSize: 32}
	// Cells run concurrently into index-addressed slots; rows with no warp
	// instructions stay nil and are compacted afterwards, preserving the
	// serial path's skip-empty behaviour and ordering.
	rows := make([]*Ext1Row, len(extWorkloads))
	if err := s.each(len(extWorkloads), func(i int) error {
		name := extWorkloads[i]
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		rep, _, _, err := analyze(w, s, 32, false)
		if err != nil {
			return err
		}
		var total, full, single, cum uint64
		for _, v := range rep.LaneHistogram {
			total += v
		}
		if total == 0 {
			return nil
		}
		full = rep.LaneHistogram[len(rep.LaneHistogram)-1]
		single = rep.LaneHistogram[1]
		median := 0
		for k, v := range rep.LaneHistogram {
			cum += v
			if cum >= total/2 {
				median = k
				break
			}
		}
		rows[i] = &Ext1Row{
			Workload:    name,
			Efficiency:  rep.Efficiency,
			FullPct:     100 * float64(full) / float64(total),
			SinglePct:   100 * float64(single) / float64(total),
			MedianLanes: median,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r != nil {
			d.Rows = append(d.Rows, *r)
		}
	}
	return d, nil
}

// Render formats the occupancy study.
func (d *Ext1Data) Render() string {
	t := newTable("workload", "efficiency", "full warps", "single-lane", "median lanes")
	for _, r := range d.Rows {
		t.add(r.Workload, pct(r.Efficiency),
			fmt.Sprintf("%5.1f%%", r.FullPct),
			fmt.Sprintf("%5.1f%%", r.SinglePct),
			fmt.Sprintf("%d", r.MedianLanes))
	}
	return "Extension 1: Active-lane occupancy distributions (warp=32)\n" + t.String() +
		"Workloads with equal efficiency but different shapes need different hardware fixes:\n" +
		"single-lane tails respond to serialization fixes, uniformly thin warps to narrower SIMD.\n"
}

// Ext2Row is one (workload, SM count) simulation point.
type Ext2Row struct {
	Workload string
	Cycles   map[int]uint64 // SM count -> cycles
}

// Ext2Data is the SM-scaling study.
type Ext2Data struct {
	SMCounts []int
	Rows     []Ext2Row
}

// Ext2 sweeps the SIMT machine's SM count for each workload — section
// V-B's design question for SIMT hardware between a multicore CPU and a
// GPU. Divergent workloads saturate with few SMs; convergent, occupancy-
// rich ones keep scaling.
func Ext2(s Scale) (*Ext2Data, error) {
	base := gpusim.RTX3070()
	cfgs := gpusim.ScaleSweep(base, 16)
	d := &Ext2Data{}
	for _, c := range cfgs {
		d.SMCounts = append(d.SMCounts, c.NumSMs)
	}
	d.Rows = make([]Ext2Row, len(extWorkloads))
	if err := s.each(len(extWorkloads), func(i int) error {
		name := extWorkloads[i]
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		cfg := s.config(w)
		if cfg.Threads == 0 {
			cfg.Threads = 256 // enough warps to make scaling meaningful
		}
		inst, err := w.Instantiate(cfg)
		if err != nil {
			return err
		}
		tr, err := inst.Trace()
		if err != nil {
			return err
		}
		kt, err := simtrace.Generate(inst.Prog, tr, 32)
		if err != nil {
			return err
		}
		points, err := gpusim.Sweep(kt, cfgs)
		if err != nil {
			return err
		}
		row := Ext2Row{Workload: name, Cycles: map[int]uint64{}}
		for _, pt := range points {
			row.Cycles[pt.Config.NumSMs] = pt.Result.Cycles
		}
		d.Rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Render formats the scaling study.
func (d *Ext2Data) Render() string {
	cols := []string{"workload"}
	for _, n := range d.SMCounts {
		cols = append(cols, fmt.Sprintf("%d SM", n))
	}
	t := newTable(cols...)
	for _, r := range d.Rows {
		cells := []string{r.Workload}
		base := r.Cycles[d.SMCounts[0]]
		for _, n := range d.SMCounts {
			speed := float64(base) / float64(r.Cycles[n])
			cells = append(cells, fmt.Sprintf("%dcy (%.1fx)", r.Cycles[n], speed))
		}
		t.add(cells...)
	}
	return "Extension 2: SM-count scaling at 256 threads (speedup vs 1 SM)\n" + t.String()
}
