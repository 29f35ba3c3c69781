package workloads

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"threadfuser/internal/core"
	"threadfuser/internal/trace"
)

// analyzeWorkload builds, traces and analyzes one workload at reduced scale.
func analyzeWorkload(t *testing.T, name string, warpSize int, emulateLocks bool) *core.Report {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Instantiate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := inst.Trace()
	if err != nil {
		t.Fatalf("%s: trace: %v", name, err)
	}
	opts := core.Defaults()
	opts.WarpSize = warpSize
	opts.EmulateLocks = emulateLocks
	rep, err := core.Analyze(tr, opts)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	return rep
}

// TestAllWorkloadsTraceAndAnalyze is the suite-wide smoke test: every
// registered workload must build, trace to a valid stream, and analyze to a
// sane efficiency at all three paper warp sizes.
func TestAllWorkloadsTraceAndAnalyze(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			inst, err := w.Instantiate(Config{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if got := tr.TotalInstructions(); got < 100 {
				t.Errorf("trace has only %d instructions; workload too trivial", got)
			}
			var prev = 2.0
			for _, ws := range []int{8, 16, 32} {
				opts := core.Defaults()
				opts.WarpSize = ws
				rep, err := core.Analyze(tr, opts)
				if err != nil {
					t.Fatalf("warp %d: %v", ws, err)
				}
				if rep.Efficiency <= 0 || rep.Efficiency > 1+1e-9 {
					t.Errorf("warp %d: efficiency %v out of (0,1]", ws, rep.Efficiency)
				}
				if rep.Efficiency > prev+1e-9 {
					t.Errorf("efficiency rose from %v to %v at warp %d; must be non-increasing", prev, rep.Efficiency, ws)
				}
				prev = rep.Efficiency
			}
		})
	}
}

// TestWorkloadsDeterministic checks that the same seed yields an identical
// trace (byte-for-byte after encoding), which every correlation experiment
// relies on.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"vectoradd", "rodinia.bfs", "paropoly.nbody"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *trace.Trace {
			inst, err := w.Instantiate(Config{Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		a, b := mk(), mk()
		if a.TotalInstructions() != b.TotalInstructions() {
			t.Errorf("%s: instruction counts differ across identical seeds", name)
		}
		ra, rb := mustAnalyze(t, a), mustAnalyze(t, b)
		if ra.Efficiency != rb.Efficiency || ra.HeapTx != rb.HeapTx {
			t.Errorf("%s: reports differ across identical seeds", name)
		}
	}
}

func mustAnalyze(t *testing.T, tr *trace.Trace) *core.Report {
	t.Helper()
	rep, err := core.Analyze(tr, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEfficiencyBands pins each workload's warp-32 efficiency to the band
// its real counterpart occupies in the paper's figure 1, so refactors that
// change workload behaviour are caught. Bands are deliberately wide; the
// shape (who is high, who is low) is what matters.
func TestEfficiencyBands(t *testing.T) {
	bands := map[string][2]float64{
		"vectoradd":                 {0.95, 1.0},
		"uncoalesced":               {0.95, 1.0},
		"paropoly.nbody":            {0.90, 1.0},
		"rodinia.nn":                {0.90, 1.0},
		"rodinia.sc":                {0.60, 1.0},
		"rodinia.bfs":               {0.05, 0.50},
		"rodinia.btree":             {0.20, 0.85},
		"rodinia.pf":                {0.30, 0.90},
		"paropoly.bfs":              {0.05, 0.60},
		"paropoly.cc":               {0.15, 0.70},
		"paropoly.pagerank":         {0.20, 0.85},
		"usuite.mcrouter.memcached": {0.55, 0.95},
		"usuite.mcrouter.mid":       {0.65, 0.98},
		"usuite.mcrouter.leaf":      {0.80, 1.0},
		"usuite.textsearch.leaf":    {0.70, 0.99},
		"usuite.textsearch.mid":     {0.70, 0.99},
		"usuite.hdsearch.leaf":      {0.70, 1.0},
		"usuite.hdsearch.mid":       {0.02, 0.15}, // the paper's 7%
		"usuite.hdsearch.mid.fixed": {0.80, 1.0},  // the paper's 90% fix
		"dsb.uniqueid":              {0.90, 1.0},
		"dsb.urlshort":              {0.85, 1.0},
		"dsb.text":                  {0.55, 0.95},
		"dsb.post":                  {0.25, 0.75},
		"dsb.usertag":               {0.70, 1.0},
		"dsb.user":                  {0.80, 1.0},
		"parsec.blackscholes":       {0.75, 0.99},
		"parsec.streamcluster":      {0.60, 1.0},
		"parsec.bodytrack":          {0.45, 0.90},
		"parsec.facesim":            {0.80, 1.0},
		"parsec.fluidanimate":       {0.30, 0.80},
		"parsec.freqmine":           {0.15, 0.60},
		"parsec.swaptions":          {0.85, 1.0},
		"parsec.vips":               {0.85, 1.0},
		"parsec.x264":               {0.05, 0.45},
		"other.pigz":                {0.05, 0.30},
		"other.rotate":              {0.90, 1.0},
		"other.md5":                 {0.90, 1.0},
	}
	for name, band := range bands {
		rep := analyzeWorkload(t, name, 32, false)
		if rep.Efficiency < band[0] || rep.Efficiency > band[1] {
			t.Errorf("%s: warp-32 efficiency %.3f outside paper band [%.2f, %.2f]",
				name, rep.Efficiency, band[0], band[1])
		}
	}
}

// TestTableIComplete checks the catalog matches the paper's Table I: 36
// workloads, 11 of them with GPU twins, and the documented thread counts.
func TestTableIComplete(t *testing.T) {
	if got := len(TableI()); got != 36 {
		t.Errorf("Table I has %d workloads, want 36", got)
	}
	if got := len(Correlation()); got != 11 {
		t.Errorf("correlation set has %d workloads, want 11", got)
	}
	if got := len(Microservices()); got != 13 {
		t.Errorf("microservice set has %d workloads, want 13 (7 uSuite + 6 DSB)", got)
	}
	counts := map[string]int{
		"rodinia.nn":  42 * 1024,
		"rodinia.sc":  16 * 1024,
		"other.pigz":  128,
		"other.md5":   512,
		"dsb.post":    2048,
		"parsec.vips": 512,
	}
	for name, want := range counts {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.PaperThreads != want {
			t.Errorf("%s: PaperThreads = %d, want %d", name, w.PaperThreads, want)
		}
	}
}

// TestHDSearchFixRecoversEfficiency pins the figure-7 narrative end to end:
// the fixed variant must be at least 10x more efficient than the original,
// and the original's getpoint must be the efficiency bottleneck.
func TestHDSearchFixRecoversEfficiency(t *testing.T) {
	orig := analyzeWorkload(t, "usuite.hdsearch.mid", 32, false)
	fixed := analyzeWorkload(t, "usuite.hdsearch.mid.fixed", 32, false)
	if fixed.Efficiency < 10*orig.Efficiency {
		t.Errorf("fix recovered only %.3f -> %.3f; paper reports 7%% -> 90%%",
			orig.Efficiency, fixed.Efficiency)
	}
	gp, ok := orig.Function("getpoint")
	if !ok {
		t.Fatal("getpoint missing from per-function report")
	}
	if gp.Efficiency > 0.15 {
		t.Errorf("getpoint efficiency %.3f, want <= 0.15 (paper: 6%%)", gp.Efficiency)
	}
	if gp.InstrShare < 0.30 {
		t.Errorf("getpoint instruction share %.2f, want the dominant share (paper: ~half)", gp.InstrShare)
	}
}

// TestVectorAddCoalescing pins the coalescing contrast between the two
// micro benchmarks: the grid-stride kernel approaches the 4-transactions
// ideal for 8-byte lanes (8 tx per 32-lane instruction), the chunked kernel
// needs close to one transaction per lane (paper figures 4 and 10).
func TestVectorAddCoalescing(t *testing.T) {
	co := analyzeWorkload(t, "vectoradd", 32, false)
	un := analyzeWorkload(t, "uncoalesced", 32, false)
	if co.HeapTxPerInstr > 9 {
		t.Errorf("vectoradd heap tx/instr = %.2f, want near the 8 ideal for 8-byte lanes", co.HeapTxPerInstr)
	}
	if un.HeapTxPerInstr < 24 {
		t.Errorf("uncoalesced heap tx/instr = %.2f, want near 32 (one per lane)", un.HeapTxPerInstr)
	}
	if un.HeapTxPerInstr < 2.5*co.HeapTxPerInstr {
		t.Errorf("uncoalesced (%.2f) should need several times the transactions of vectoradd (%.2f)",
			un.HeapTxPerInstr, co.HeapTxPerInstr)
	}
	if math.Abs(co.Efficiency-un.Efficiency) > 0.01 {
		t.Errorf("control efficiency should match between the micro kernels: %v vs %v",
			co.Efficiency, un.Efficiency)
	}
}

// TestPaperScaleSmoke traces a few workloads at their Table-I thread counts
// to confirm the full-scale path works (the figure experiments expose it
// via report.Scale{Full: true} and tfreport -full).
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale tracing in -short mode")
	}
	for _, name := range []string{"vectoradd", "other.pigz", "dsb.uniqueid"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Instantiate(Config{Seed: 1, Threads: w.PaperThreads})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := inst.Trace()
		if err != nil {
			t.Fatalf("%s at %d threads: %v", name, w.PaperThreads, err)
		}
		opts := core.Defaults()
		rep, err := core.Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Threads != w.PaperThreads {
			t.Errorf("%s: analyzed %d threads, want %d", name, rep.Threads, w.PaperThreads)
		}
		// Efficiency at paper scale must sit near the reduced-scale value:
		// the figure-1 numbers are not artifacts of small inputs.
		small, err := w.Instantiate(Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		str, err := small.Trace()
		if err != nil {
			t.Fatal(err)
		}
		srep, err := core.Analyze(str, opts)
		if err != nil {
			t.Fatal(err)
		}
		if diff := rep.Efficiency - srep.Efficiency; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s: paper-scale efficiency %.3f far from reduced-scale %.3f",
				name, rep.Efficiency, srep.Efficiency)
		}
	}
}

// TestScaleKnob checks Config.Scale actually grows per-thread work.
func TestScaleKnob(t *testing.T) {
	w, err := ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	small, _ := w.Instantiate(Config{Seed: 1, Scale: 0.5})
	big, _ := w.Instantiate(Config{Seed: 1, Scale: 2})
	ts, err := small.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := big.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tb.TotalInstructions() <= 2*ts.TotalInstructions() {
		t.Errorf("Scale=2 trace (%d instrs) not > 2x Scale=0.5 trace (%d)",
			tb.TotalInstructions(), ts.TotalInstructions())
	}
}

// TestSelect: -all wins over a list, names resolve in order with spaces
// trimmed, an empty list selects none, and an unknown name is an error.
func TestSelect(t *testing.T) {
	names := func(ws []*Workload) []string {
		var out []string
		for _, w := range ws {
			out = append(out, w.Name)
		}
		return out
	}
	for _, c := range []struct {
		list string
		all  bool
		want []string
	}{
		{"", false, nil},
		{"vectoradd", false, []string{"vectoradd"}},
		{"uncoalesced, vectoradd", false, []string{"uncoalesced", "vectoradd"}},
		{"vectoradd", true, names(All())},
	} {
		got, err := Select(c.list, c.all)
		if err != nil {
			t.Fatalf("Select(%q, %t): %v", c.list, c.all, err)
		}
		if g := names(got); !reflect.DeepEqual(g, c.want) {
			t.Errorf("Select(%q, %t) = %v, want %v", c.list, c.all, g, c.want)
		}
	}
	if _, err := Select("vectoradd,nosuch", false); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("unknown name: error %v, want one naming it", err)
	}
}
