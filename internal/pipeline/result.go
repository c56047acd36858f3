package pipeline

// Result summarizes a timing run. The timing memo publishes one Result per
// cell under a sync.Once and every later experiment reads that same value,
// so it is frozen: built locally, then never written again.
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
