package funcsim

import (
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// This file is the accuracy engine: one trace pass feeds every predictor
// in a sweep, and Run (funcsim.go) is the same engine with one lane. The
// engine pulls each 256-entry branch batch once and feeds it to every lane
// before advancing the source, so the fill cost amortizes over the whole
// grid column. Every lane steps through the batch with one call of the
// stepper core.BatchStepperOf resolves for it, leaving its per-branch
// predictions in one shared column that the mispredict and per-class
// tallies read. A clocked lane (core.NeedsClock) reads each branch's fetch
// cycle from a shared cycle column, which the engine knows before the step:
// it is (InstIndex+1)/FetchWidth. A test-only reference (reference_test.go)
// — one Next call per instruction, one OnCycle/Predict/Update sequence per
// branch — pins every Result bit for bit.

// A Lane is one predictor's slot in a fused RunMany sweep. Each lane gets
// its own fresh predictor, exactly as if it were run through Run alone.
type Lane struct {
	P predictor.Predictor
}

// RunMany streams src through every lane's predictor in one pass and
// returns one Result per lane, in lane order. Each lane's Result is
// exactly what Run(lane.P, src, opts) returns over its own cursor on the
// same stream (TestRunManyEquivalence): fusion is an execution strategy,
// not an observable one. Cycle-aware predictors see a fetch clock
// reconstructed from each branch's InstIndex. With
// Options.PerClass and a src implementing BranchClassifier, every lane
// tallies per-class rates.
func RunMany(lanes []Lane, src trace.BranchSource, opts Options) []Result {
	// BranchSource is the batch protocol alone; real sources (cursors, live
	// generators, filters) also carry the workload name.
	name := ""
	if s, ok := src.(interface{ Name() string }); ok {
		name = s.Name()
	}
	checkBudget("RunMany", name, opts)
	classifier, _ := src.(BranchClassifier)
	return runMany(lanes, src, name, classifier, opts)
}

// runMany is the engine entry shared by Run and RunMany: Run passes its
// Source's name and classifier, which a filtered stream does not carry.
func runMany(lanes []Lane, src trace.BranchSource, name string, classifier BranchClassifier, opts Options) []Result {
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 3
	}
	if !opts.PerClass {
		classifier = nil
	}
	r := newFusedRun(lanes, classifier, opts)
	r.drive(src)
	return r.results(lanes, name)
}

// fusedRun is the state of one sweep. Per-lane state is packed into
// index-aligned slices (structure of arrays). The warm-up boundary,
// instruction count, taken tally and fetch cycles are lane-invariant —
// they are functions of the stream's InstIndexes alone — so they are
// computed once per batch, not once per lane.
//
// Each branch's context is reconstructed from its InstIndex i: it is
// processed iff i < MaxInsts, measured iff i >= WarmupInsts, and a clocked
// lane sees fetch cycle (i+1)/FetchWidth. Cycle 0 is never announced: a
// clocked lane clocks itself through its cycle-0 branches, which only the
// first batch holds, and reads the column from its first nonzero cycle.
type fusedRun struct {
	opts Options

	// Per-lane state, index-aligned with the lanes slice.
	steppers []predictor.BatchStepper
	mispred  []int64

	// clocked is set when some lane's predictions depend on the fetch
	// clock; only then is the cycle column filled.
	clocked bool

	// classifier and classRates serve the PerClass diagnostic: nil
	// without it, else one class → rate map per lane.
	classifier BranchClassifier
	classRates []map[string]*stats.Rate

	// Stream-wide tallies, shared by every lane: insts and the measured
	// count are functions of the stream's InstIndexes alone.
	insts    int64
	measured int64
	taken    int64

	// The current batch, and its SoA view, filled once and read by every
	// lane; preds holds one lane's predictions at a time.
	batch  [trace.BatchLen]trace.BranchRec
	pcs    [trace.BatchLen]uint64
	takens [trace.BatchLen]bool
	cycles [trace.BatchLen]uint64
	preds  [trace.BatchLen]bool
}

func newFusedRun(lanes []Lane, classifier BranchClassifier, opts Options) *fusedRun {
	r := &fusedRun{
		opts:       opts,
		steppers:   make([]predictor.BatchStepper, len(lanes)),
		mispred:    make([]int64, len(lanes)),
		classifier: classifier,
	}
	if classifier != nil {
		r.classRates = make([]map[string]*stats.Rate, len(lanes))
	}
	for i, l := range lanes {
		r.steppers[i] = core.BatchStepperOf(l.P)
		r.clocked = r.clocked || core.NeedsClock(l.P)
		if classifier != nil {
			r.classRates[i] = make(map[string]*stats.Rate)
		}
	}
	return r
}

// drive is the engine's one drive loop: fill the batch, feed it to every
// lane, until the budget or the stream runs out.
//
// TestRunManyAllocs pins it allocation-free at steady state.
func (r *fusedRun) drive(src trace.BranchSource) {
	for {
		n := src.NextBranches(r.batch[:])
		if n == 0 {
			// The stream ended before the budget.
			r.insts = min(src.InstsScanned(), r.opts.MaxInsts)
			return
		}
		if r.step(r.batch[:n]) {
			r.insts = r.opts.MaxInsts
			return
		}
	}
}

// step feeds one filled batch to every lane; it reports true when the
// instruction budget is exhausted and the sweep is complete. Because
// records ascend by InstIndex, the budget cut, the warm-up boundary and
// the end of the cycle-0 prefix are single positions valid for every lane.
//
// It runs once per 256-branch batch; TestRunManyAllocs pins it
// allocation-free.
func (r *fusedRun) step(batch []trace.BranchRec) (done bool) {
	cut := len(batch)
	for i := range batch {
		if batch[i].InstIndex >= r.opts.MaxInsts {
			cut, done = i, true
			break
		}
	}
	from := 0
	for from < cut && batch[from].InstIndex < r.opts.WarmupInsts {
		from++
	}
	for i := 0; i < cut; i++ {
		r.pcs[i] = batch[i].PC
		r.takens[i] = batch[i].Taken
		if i >= from && batch[i].Taken {
			r.taken++
		}
	}
	r.measured += int64(cut - from)
	// Branches [0, self) are in cycle 0 and step with no cycle column.
	var cycles []uint64
	self := 0
	if r.clocked {
		fw := uint64(r.opts.FetchWidth)
		for i := 0; i < cut; i++ {
			r.cycles[i] = uint64(batch[i].InstIndex+1) / fw
		}
		for self < cut && r.cycles[self] == 0 {
			self++
		}
		cycles = r.cycles[self:cut]
	}
	pcs, takens, preds := r.pcs[:cut], r.takens[:cut], r.preds[:cut]
	for li, s := range r.steppers {
		if self > 0 {
			s.StepBatch(pcs[:self], takens[:self], nil, preds[:self])
		}
		s.StepBatch(pcs[self:], takens[self:], cycles, preds[self:])
		var miss int64
		for i := from; i < cut; i++ {
			if preds[i] != takens[i] {
				miss++
			}
		}
		r.mispred[li] += miss
		if r.classRates != nil {
			for i := from; i < cut; i++ {
				r.tallyClass(li, pcs[i], preds[i] != takens[i])
			}
		}
	}
	return done
}

// tallyClass adds one measured branch to lane li's rate for the branch's
// behaviour class, if the classifier knows it.
func (r *fusedRun) tallyClass(li int, pc uint64, miss bool) {
	name, ok := r.classifier.BranchClassName(pc)
	if !ok {
		return
	}
	cr := r.classRates[li][name]
	if cr == nil {
		cr = &stats.Rate{}
		r.classRates[li][name] = cr
	}
	cr.Add(miss)
}

func (r *fusedRun) results(lanes []Lane, workload string) []Result {
	out := make([]Result, len(lanes))
	takenRate := 0.0
	if r.measured > 0 {
		takenRate = float64(r.taken) / float64(r.measured)
	}
	for i, l := range lanes {
		out[i] = Result{
			Predictor:    l.P.Name(),
			Workload:     workload,
			Insts:        r.insts,
			Branches:     r.measured,
			Mispredicts:  r.mispred[i],
			TakenRate:    takenRate,
			PredSizeByte: l.P.SizeBytes(),
		}
		if r.classRates != nil {
			out[i].ClassRates = r.classRates[i]
		}
	}
	return out
}
