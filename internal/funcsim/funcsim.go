// Package funcsim is the functional (accuracy-only) branch prediction
// driver: it streams a workload's conditional branches through a predictor
// in program order and counts mispredictions. It is the engine behind the
// misprediction-rate experiments (Figures 1, 5 and 6) where timing does not
// matter — except for cycle-aware predictors like gshare.fast, for which it
// approximates fetch timing by advancing one cycle per fetch-width
// instructions.
package funcsim

import (
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// Options configures a functional run.
type Options struct {
	// MaxInsts bounds the dynamic instruction count (branches included).
	MaxInsts int64
	// WarmupInsts are executed and trained on but excluded from the
	// misprediction statistics, mirroring the paper's practice of
	// skipping each benchmark's initialization phase.
	WarmupInsts int64
	// FetchWidth sets the cycle approximation for cycle-aware
	// predictors: the fetch clock advances every FetchWidth
	// instructions. Zero defaults to 3, the *effective* fetch throughput
	// of the simulated core (the nominal width is 8, but stalls and
	// taken-branch fetch breaks keep sustained IPC near 2-3, and the
	// timing simulator supplies real cycles anyway).
	FetchWidth int
	// PerClass, with a generator implementing BranchClassifier, collects
	// misprediction rates per branch behaviour class — a calibration
	// diagnostic, not a paper result.
	PerClass bool
	// BlockBranches caps the branches grouped into one prediction block
	// by RunBlocks (default 8, one fetch block's worth).
	BlockBranches int
}

// BranchClassifier is implemented by workload generators that can report
// the behaviour class of a static branch, enabling per-class diagnostics.
type BranchClassifier interface {
	BranchClassName(pc uint64) (string, bool)
}

// Result summarizes a functional run.
type Result struct {
	Predictor    string
	Workload     string
	Insts        int64
	Branches     int64 // measured branches (after warm-up)
	Mispredicts  int64
	TakenRate    float64
	PredSizeByte int
	// ClassRates maps branch class name to its misprediction rate and
	// dynamic share (filled only with Options.PerClass).
	ClassRates map[string]*stats.Rate
}

// MispredictRate returns mispredictions per measured branch.
func (r Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// MispredictPercent returns the misprediction rate as a percentage, the
// unit of Figures 1, 5 and 6.
func (r Result) MispredictPercent() float64 { return 100 * r.MispredictRate() }

// Run streams src through p and returns the accuracy result. src may be a
// live generator or a recorded trace's replay cursor; the two are
// equivalent by construction (see internal/trace). Run is RunMany with one
// lane: a source that serves its branches directly (trace.BranchSource) is
// read in batches, and any other is filtered to its branches by
// trace.FilterBranches.
func Run(p predictor.Predictor, src trace.Source, opts Options) Result {
	classifier, _ := src.(BranchClassifier)
	return runMany([]Lane{{P: p}}, branchSource(src), src.Name(), classifier, opts)[0]
}

// branchSource returns src's own branch protocol when it has one, and the
// filtered stream otherwise.
func branchSource(src trace.Source) trace.BranchSource {
	if bs, ok := src.(trace.BranchSource); ok {
		return bs
	}
	return trace.FilterBranches(src)
}

// BlockPredictor is the block-at-a-time prediction protocol of the
// multiple-branch experiment (§3.3.1).
type BlockPredictor interface {
	PredictBlock(pcs []uint64) []bool
	UpdateBlock(pcs []uint64, takens []bool)
}

// RunBlocks streams src through a block predictor, grouping up to
// BlockBranches consecutive branches into one prediction block (all
// predicted with the history as of the block's start), and returns the
// accuracy result. It measures the accuracy cost of the stale within-block
// history that multiple-branch prediction implies (§3.3.1). A branch at
// 0-based stream index i belongs to fetch cycle (i+1)/FetchWidth; a block
// ends at a cycle change or when it is full.
func RunBlocks(p BlockPredictor, name string, src trace.Source, opts Options) Result {
	if opts.MaxInsts <= 0 {
		opts.MaxInsts = 1_000_000
	}
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 8
	}
	if opts.BlockBranches <= 0 {
		opts.BlockBranches = 8
	}
	var (
		insts     int64
		mispred   stats.Rate
		pcs       []uint64
		takens    []bool
		measured  []bool
		lastCycle uint64 = ^uint64(0)
	)
	flush := func() {
		if len(pcs) == 0 {
			return
		}
		preds := p.PredictBlock(pcs)
		p.UpdateBlock(pcs, takens)
		for i := range preds {
			if measured[i] {
				mispred.Add(preds[i] != takens[i])
			}
		}
		pcs, takens, measured = pcs[:0], takens[:0], measured[:0]
	}
	bs := branchSource(src)
	batch := make([]trace.BranchRec, trace.BatchLen)
	done := false
	for !done {
		n := bs.NextBranches(batch)
		if n == 0 {
			insts = min(bs.InstsScanned(), opts.MaxInsts)
			break
		}
		for i := 0; i < n; i++ {
			rec := &batch[i]
			if rec.InstIndex >= opts.MaxInsts {
				insts = opts.MaxInsts
				done = true
				break
			}
			cycle := uint64(rec.InstIndex+1) / uint64(opts.FetchWidth)
			if cycle != lastCycle || len(pcs) >= opts.BlockBranches {
				flush()
				lastCycle = cycle
			}
			pcs = append(pcs, rec.PC)
			takens = append(takens, rec.Taken)
			measured = append(measured, rec.InstIndex >= opts.WarmupInsts)
		}
	}
	flush()
	return Result{
		Predictor:   name,
		Workload:    src.Name(),
		Insts:       insts,
		Branches:    mispred.Total,
		Mispredicts: mispred.Events,
	}
}
