// Package funcsim is the functional (accuracy-only) branch prediction
// driver: it streams a workload's conditional branches through a predictor
// in program order and counts mispredictions. It is the engine behind the
// misprediction-rate experiments (Figures 1, 5 and 6) where timing does not
// matter — except for cycle-aware predictors like gshare.fast, for which it
// approximates fetch timing by advancing one cycle per fetch-width
// instructions.
package funcsim

import (
	"fmt"

	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// Options configures a functional run.
type Options struct {
	// MaxInsts bounds the dynamic instruction count (branches included);
	// it must be positive.
	MaxInsts int64
	// WarmupInsts are executed and trained on but excluded from the
	// misprediction statistics, mirroring the paper's practice of
	// skipping each benchmark's initialization phase. It must lie in
	// [0, MaxInsts).
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

// checkBudget panics, naming the entry point and the workload, unless the
// run measures a nonempty window: MaxInsts > 0 and WarmupInsts in
// [0, MaxInsts).
func checkBudget(entry, workload string, opts Options) {
	if opts.WarmupInsts < 0 || opts.WarmupInsts >= opts.MaxInsts {
		panic(fmt.Sprintf("funcsim: %s on %s: warm-up %d insts outside [0, maxInsts %d)",
			entry, workload, opts.WarmupInsts, opts.MaxInsts))
	}
}

// Run streams src through p and returns the accuracy result. src may be a
// live generator or a recorded trace's replay cursor; the two are
// equivalent by construction (see internal/trace). Run is RunMany with one
// lane: a source that serves its branches directly (trace.BranchSource) is
// read in batches, and any other is filtered to its branches by
// trace.FilterBranches.
func Run(p predictor.Predictor, src trace.Source, opts Options) Result {
	checkBudget("Run", src.Name(), opts)
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
// multiple-branch experiment (§3.3.1). StepBlock predicts the branches of
// one fetch block into preds, all from the history as of the block's
// start, then trains on their outcomes, takens.
type BlockPredictor interface {
	StepBlock(pcs []uint64, takens, preds []bool)
}

// RunBlocks streams src through a block predictor, grouping up to
// BlockBranches consecutive branches into one prediction block (all
// predicted with the history as of the block's start), and returns the
// accuracy result. It measures the accuracy cost of the stale within-block
// history that multiple-branch prediction implies (§3.3.1). A branch at
// 0-based stream index i belongs to fetch cycle (i+1)/FetchWidth; a block
// ends at a cycle change or when it is full. RunBlocks is RunManyBlocks
// with one lane.
func RunBlocks(p BlockPredictor, name string, src trace.Source, opts Options) Result {
	checkBudget("RunBlocks", src.Name(), opts)
	return RunManyBlocks([]BlockLane{{P: p, Name: name}}, src, opts)[0]
}

// A BlockLane is one block predictor's slot in a RunManyBlocks pass: the
// predictor, the name its Result carries, and its block width, the most
// branches one block predicts (0 takes Options.BlockBranches). Each lane
// needs a predictor of its own.
type BlockLane struct {
	P     BlockPredictor
	Name  string
	Width int
}

// RunManyBlocks streams src once through every lane and returns one Result
// per lane, in lane order, each exactly what RunBlocks returns for that
// lane alone. The fetch cycles are the stream's, so the lanes share each
// cycle's run of branches and split it into blocks of their own width.
func RunManyBlocks(lanes []BlockLane, src trace.Source, opts Options) []Result {
	checkBudget("RunManyBlocks", src.Name(), opts)
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 8
	}
	if opts.BlockBranches <= 0 {
		opts.BlockBranches = 8
	}
	var (
		insts     int64
		mispred   = make([]stats.Rate, len(lanes))
		pcs       []uint64
		takens    []bool
		measured  []bool
		lastCycle uint64 = ^uint64(0)
		// A fetch cycle spans at most FetchWidth instructions, so at most
		// FetchWidth branches.
		cycleBuf = make([]bool, opts.FetchWidth)
	)
	// flush steps every lane through the current cycle's branches, one
	// block of at most the lane's width at a time.
	flush := func() {
		preds := cycleBuf[:len(pcs)]
		for li, l := range lanes {
			w := l.Width
			if w <= 0 {
				w = opts.BlockBranches
			}
			for lo := 0; lo < len(pcs); lo += w {
				hi := min(lo+w, len(pcs))
				l.P.StepBlock(pcs[lo:hi], takens[lo:hi], preds[lo:hi])
			}
			for i, pr := range preds {
				if measured[i] {
					mispred[li].Add(pr != takens[i])
				}
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
			if cycle := uint64(rec.InstIndex+1) / uint64(opts.FetchWidth); cycle != lastCycle {
				flush()
				lastCycle = cycle
			}
			pcs = append(pcs, rec.PC)
			takens = append(takens, rec.Taken)
			measured = append(measured, rec.InstIndex >= opts.WarmupInsts)
		}
	}
	flush()
	out := make([]Result, len(lanes))
	for li, l := range lanes {
		out[li] = Result{
			Predictor:   l.Name,
			Workload:    src.Name(),
			Insts:       insts,
			Branches:    mispred[li].Total,
			Mispredicts: mispred[li].Events,
		}
	}
	return out
}
