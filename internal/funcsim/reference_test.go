package funcsim

import (
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// refRun is the accuracy simulator's test-only reference: the naive
// predict → update → charge loop of a textbook predictor harness, one Next
// call per instruction and one Predict/Update pair per branch, with the
// instruction count, warm-up boundary and fetch clock kept as running
// counters rather than reconstructed from branch indexes. The engine
// (Run, RunMany) must match it bit for bit.
func refRun(p predictor.Predictor, src trace.Source, opts Options) Result {
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 3
	}
	cycleAware, _ := p.(predictor.CycleAware)
	classifier, _ := src.(BranchClassifier)
	var classRates map[string]*stats.Rate
	if opts.PerClass && classifier != nil {
		classRates = make(map[string]*stats.Rate)
	}
	var (
		inst      trace.Inst
		insts     int64
		taken     stats.Rate
		mispred   stats.Rate
		lastCycle uint64
	)
	for insts < opts.MaxInsts && src.Next(&inst) {
		insts++
		if !inst.IsBranch() {
			continue
		}
		if cycleAware != nil {
			if cycle := uint64(insts) / uint64(opts.FetchWidth); cycle != lastCycle {
				lastCycle = cycle
				cycleAware.OnCycle(cycle)
			}
		}
		pred := p.Predict(inst.PC)
		p.Update(inst.PC, inst.Taken)
		if insts <= opts.WarmupInsts {
			continue
		}
		taken.Add(inst.Taken)
		miss := pred != inst.Taken
		mispred.Add(miss)
		if classRates != nil {
			if name, ok := classifier.BranchClassName(inst.PC); ok {
				if classRates[name] == nil {
					classRates[name] = &stats.Rate{}
				}
				classRates[name].Add(miss)
			}
		}
	}
	return Result{
		ClassRates:   classRates,
		Predictor:    p.Name(),
		Workload:     src.Name(),
		Insts:        insts,
		Branches:     mispred.Total,
		Mispredicts:  mispred.Events,
		TakenRate:    taken.Value(),
		PredSizeByte: p.SizeBytes(),
	}
}

// refRunBlocks is RunBlocks' test-only reference: the same block grouping
// driven one Next call per instruction, the fetch cycle taken from the
// running instruction count.
func refRunBlocks(p BlockPredictor, name string, src trace.Source, opts Options) Result {
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 8
	}
	if opts.BlockBranches <= 0 {
		opts.BlockBranches = 8
	}
	var (
		inst      trace.Inst
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
		preds := make([]bool, len(pcs))
		p.StepBlock(pcs, takens, preds)
		for i := range preds {
			if measured[i] {
				mispred.Add(preds[i] != takens[i])
			}
		}
		pcs, takens, measured = pcs[:0], takens[:0], measured[:0]
	}
	for insts < opts.MaxInsts && src.Next(&inst) {
		insts++
		if !inst.IsBranch() {
			continue
		}
		cycle := uint64(insts) / uint64(opts.FetchWidth)
		if cycle != lastCycle || len(pcs) >= opts.BlockBranches {
			flush()
			lastCycle = cycle
		}
		pcs = append(pcs, inst.PC)
		takens = append(takens, inst.Taken)
		measured = append(measured, insts > opts.WarmupInsts)
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
