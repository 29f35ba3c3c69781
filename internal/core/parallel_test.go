package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"threadfuser/internal/trace"
	"threadfuser/internal/workloads"
)

// traceWorkload traces one bundled workload at a fixed size and seed.
func traceWorkload(t *testing.T, name string, threads int) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("workload %s: %v", name, err)
	}
	inst, err := w.Instantiate(workloads.Config{Threads: threads, Seed: 1})
	if err != nil {
		t.Fatalf("instantiate %s: %v", name, err)
	}
	tr, err := inst.Trace()
	if err != nil {
		t.Fatalf("trace %s: %v", name, err)
	}
	return tr
}

// TestParallelMatchesSerial is the determinism contract: for every covered
// workload × warp size × lock mode, parallel replay must produce a Report
// deeply equal to the serial one — including Branches ordering, the
// LaneHistogram, and every per-warp and per-function row.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{
		"rodinia.bfs",
		"other.pigz",
		"paropoly.nbody",
		"usuite.hdsearch.mid",
	}
	for _, name := range names {
		tr := traceWorkload(t, name, 64)
		for _, warpSize := range []int{8, 32} {
			for _, locks := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/w%d/locks=%v", name, warpSize, locks), func(t *testing.T) {
					opts := Defaults()
					opts.WarpSize = warpSize
					opts.EmulateLocks = locks

					serial := opts
					serial.Parallelism = 1
					want, err := Analyze(tr, serial)
					if err != nil {
						t.Fatalf("serial analyze: %v", err)
					}

					parallel := opts
					parallel.Parallelism = 8
					got, err := Analyze(tr, parallel)
					if err != nil {
						t.Fatalf("parallel analyze: %v", err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("parallel report differs from serial\nserial:   %+v\nparallel: %+v", want, got)
					}
				})
			}
		}
	}
}

// TestParallelismExceedsWarps stresses the worker pool with more workers
// than warps (the pool must clamp) and with the auto setting, under -race.
func TestParallelismExceedsWarps(t *testing.T) {
	tr := traceWorkload(t, "rodinia.bfs", 16) // 1 warp at width 32
	for _, par := range []int{0, 4, 64} {
		opts := Defaults()
		opts.Parallelism = par
		rep, err := Analyze(tr, opts)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if rep.Warps == 0 || rep.TotalInstrs == 0 {
			t.Fatalf("parallelism=%d: degenerate report %+v", par, rep)
		}
	}
}

// TestSessionMatchesAnalyze checks that the memoizing session produces the
// same reports as the one-shot path across a warp-width sweep, and that
// concurrent Analyze calls on one session (the experiment-cell pattern) are
// race-free and agree with each other.
func TestSessionMatchesAnalyze(t *testing.T) {
	tr := traceWorkload(t, "paropoly.nbody", 48)
	sess := NewSession()
	for _, warpSize := range []int{8, 16, 32} {
		opts := Defaults()
		opts.WarpSize = warpSize
		want, err := Analyze(tr, opts)
		if err != nil {
			t.Fatalf("analyze w%d: %v", warpSize, err)
		}
		got, err := sess.Analyze(tr, opts)
		if err != nil {
			t.Fatalf("session analyze w%d: %v", warpSize, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("w%d: session report differs from direct Analyze", warpSize)
		}
	}

	const goroutines = 8
	reps := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	shared := NewSession()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Defaults()
			opts.EmulateLocks = i%2 == 1
			reps[i], errs[i] = shared.Analyze(tr, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reps[i], reps[i%2]) {
			t.Errorf("goroutine %d: report differs from goroutine %d under a shared session", i, i%2)
		}
	}
}

// TestConcurrentAnalysesOfOneTrace runs two analyses of one trace at once.
// Each Analyze makes its own Session, so both prepare the trace, and the
// caller's trace, control words included, is only read — which -race checks
// here, and a fresh trace of the same workload confirms after.
func TestConcurrentAnalysesOfOneTrace(t *testing.T) {
	tr := traceWorkload(t, "paropoly.nbody", 64)
	fresh := traceWorkload(t, "paropoly.nbody", 64)
	var reps [2]*Report
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Analyze(tr, Defaults())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("analysis %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Error("concurrent analyses of one trace disagree")
	}
	if !reflect.DeepEqual(tr, fresh) {
		t.Error("analysis wrote the caller's trace")
	}
}

// TestSessionRejectsZeroWarpSize mirrors Analyze's options validation.
func TestSessionRejectsZeroWarpSize(t *testing.T) {
	tr := traceWorkload(t, "rodinia.bfs", 8)
	if _, err := NewSession().Analyze(tr, Options{}); err == nil {
		t.Fatal("expected an error for WarpSize=0")
	}
}
