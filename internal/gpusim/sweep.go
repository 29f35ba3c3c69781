package gpusim

import (
	"fmt"

	"threadfuser/internal/pool"
	"threadfuser/internal/simtrace"
)

// SweepPoint is one machine configuration plus its simulation result.
type SweepPoint struct {
	Label  string
	Config Config
	Result *Result
}

// Sweep runs the same kernel trace across a set of machine configurations —
// the design-space exploration of the paper's section V-B ("architects can
// … evaluate alternative SIMT accelerator designs"). Points are labelled by
// each configuration's Name. Configurations simulate concurrently (Run only
// reads the shared kernel trace) into index-addressed slots, so the returned
// points are in configuration order regardless of completion order, and a
// failure is the first failing configuration's.
func Sweep(kt *simtrace.KernelTrace, cfgs []Config) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(cfgs))
	if _, err := pool.ForEach(0, len(cfgs), func(_, i int) error {
		cfg := cfgs[i]
		res, err := Run(kt, cfg)
		if err != nil {
			return fmt.Errorf("gpusim: sweep %s: %w", cfg.Name, err)
		}
		out[i] = SweepPoint{Label: cfg.Name, Config: cfg, Result: res}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ScaleSweep generates a family of configurations scaling the SM count of a
// base machine (1, 2, 4, ... up to maxSMs) — the "how many cores does this
// workload actually need" question for CPU-adjacent SIMT designs.
func ScaleSweep(base Config, maxSMs int) []Config {
	var cfgs []Config
	for n := 1; n <= maxSMs; n *= 2 {
		c := base
		c.NumSMs = n
		c.Name = fmt.Sprintf("%s-%dsm", base.Name, n)
		cfgs = append(cfgs, c)
	}
	return cfgs
}
