package pipeline

import "fmt"

// Result summarizes a timing run. A plan fans one Result per cell into
// every sink declared under its key, and the persistent store serves the
// same value to later runs, so it is frozen: built locally, then never
// written again.
//
//bplint:frozen
type Result struct {
	// Workload and predictor identify the run.
	Workload  string
	Predictor string
	// Insts and Cycles are the measured (post-warm-up) counts.
	Insts  int64
	Cycles uint64
	// Branches and Mispredicts cover the measured window.
	Branches    int64
	Mispredicts int64
	// Overrides and OverrideRate report the overriding organization's
	// quick/slow disagreements over the whole run (0 for single
	// predictors and gshare.fast).
	Overrides    int64
	OverrideRate float64
	// BTBMissRate is misses per taken-control-flow lookup.
	BTBMissRate float64
	// L1IMissRate, L1DMissRate and L2MissRate are cache miss ratios over
	// the whole run.
	L1IMissRate float64
	L1DMissRate float64
	L2MissRate  float64
	// FetchStallCycles approximately attributes cycles the fetch point
	// was pushed forward by redirects, bubbles and cache misses.
	FetchStallCycles uint64
}

// IPC returns measured instructions per cycle, the paper's metric.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// CheckCycles returns an error when r's measured window spans no cycles,
// which leaves its IPC undefined. It happens when every measured
// instruction commits in the warm-up's last cycle, whose commits count
// toward the warm-up: a measured window of a few instructions.
func (r Result) CheckCycles() error {
	if r.Cycles == 0 {
		return fmt.Errorf("the measured window (%d insts) spans 0 cycles: every measured instruction commits in the warm-up's last cycle, so IPC is undefined; measure more instructions past the warm-up",
			r.Insts)
	}
	return nil
}

// MispredictPercent returns the measured misprediction rate as a
// percentage.
func (r Result) MispredictPercent() float64 {
	if r.Branches == 0 {
		return 0
	}
	return 100 * float64(r.Mispredicts) / float64(r.Branches)
}

// missRate is cache.Cache.MissRate's formula, for the sidecar tallies.
func missRate(misses, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(misses) / float64(total)
}
