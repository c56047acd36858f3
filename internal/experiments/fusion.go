package experiments

import (
	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// This file is the cell scheduler: the one path every accuracy and timing
// cell resolves through. A plan's lanes arrive in groups — accuracy lanes
// by (benchmark, plain or block), timing lanes by (benchmark, cache
// geometry) at most maxTimingLanes to a group, or one lane per group under
// FuseOff — and every group runs the same sequence: probe the persistent
// store for each lane, simulate whatever is still cold in one pass
// straight off the benchmark's generator (funcsim.RunMany or
// RunManyBlocks for accuracy, pipeline.RunMany for timing), write those
// cells back, and fan each lane's Result into its sinks. The plan has
// already collapsed duplicate cells, so no two groups of a plan share a
// lane, and groups share nothing but the store. Grouping changes only
// when simulations happen, never what they compute or how they are keyed,
// so fused, -nofuse and warm-store runs are interchangeable byte for byte
// (TestFusedEquivalence, TestFusedStoreFlow, TestFusedTimingPlan).

// cellResult is a result family a cell computes: the two payloads a
// resultstore.Record carries.
type cellResult interface {
	funcsim.Result | pipeline.Result
}

// runGroup resolves one group of lanes into their res fields and sinks
// and counts its work into tally, the group's own slot; simulate runs one
// pass over specs of the group, returning Results index-aligned with
// them. A cell's key names it whole, so a group the store serves entirely
// never opens its stream.
func runGroup[S specOf[R], R cellResult](lanes []*planLane[S, R], opts Options, tally *FamilyTally, simulate func([]S) []R) {
	var cold []*planLane[S, R]
	var coldSpecs []S
	for _, l := range lanes {
		if opts.Store != nil {
			if r, ok := storeGet[R](opts.Store, l.spec.cell().key); ok {
				l.res = r
				tally.Stored += len(l.sinks)
				continue
			}
		}
		cold = append(cold, l)
		coldSpecs = append(coldSpecs, l.spec)
	}
	if len(cold) > 0 {
		out := simulate(coldSpecs)
		for j, l := range cold {
			l.res = out[j]
			if opts.Store != nil {
				storePut(opts.Store, l.spec.cell().key, out[j])
			}
			tally.Fused += len(l.sinks)
		}
		tally.Passes, tally.Lanes = 1, len(cold)
	}
	for _, l := range lanes {
		for _, sink := range l.sinks {
			sink(l.res)
		}
	}
}

// storeGet reads key's cell from store, or reports it cold. The store
// serves only records carrying key.Family's payload, and every key a
// spec of R carries names R's family.
func storeGet[R cellResult](store *resultstore.Store, key resultstore.Key) (R, bool) {
	var res R
	rec, ok := store.Get(key)
	if !ok {
		return res, false
	}
	switch p := any(&res).(type) {
	case *funcsim.Result:
		*p = *rec.Accuracy
	case *pipeline.Result:
		*p = *rec.Timing
	}
	return res, true
}

// storePut writes one computed cell back to store under key.
func storePut[R cellResult](store *resultstore.Store, key resultstore.Key, res R) {
	rec := resultstore.Record{Key: key}
	switch r := any(res).(type) {
	case funcsim.Result:
		rec.Accuracy = &r
	case pipeline.Result:
		rec.Timing = &r
	}
	store.Put(key, rec)
}

// blockFetchWidth is the fetch width of every block-prediction cell, the
// "fw8" of their SimOptions.
const blockFetchWidth = 8

// runAccuracyGroup resolves one accuracy group in one pass over the
// benchmark's generator: plain cells fused through funcsim.RunMany, block
// cells, whose per-block state RunMany does not carry, through
// funcsim.RunManyBlocks, each lane at its own block width.
func runAccuracyGroup(lanes []*planLane[accuracySpec, funcsim.Result], opts Options, tally *FamilyTally) {
	runGroup(lanes, opts, tally, func(ss []accuracySpec) []funcsim.Result {
		fo := funcsim.Options{MaxInsts: opts.Insts, WarmupInsts: opts.Warmup}
		if ss[0].blocks > 0 {
			fo.FetchWidth = blockFetchWidth
			bl := make([]funcsim.BlockLane, len(ss))
			for i, s := range ss {
				p := s.build()
				bl[i] = funcsim.BlockLane{P: p.(funcsim.BlockPredictor), Name: p.Name(), Width: s.blocks}
			}
			return funcsim.RunManyBlocks(bl, workload.New(ss[0].prof), fo)
		}
		fl := make([]funcsim.Lane, len(ss))
		for i, s := range ss {
			fl[i] = funcsim.Lane{P: s.build()}
		}
		return funcsim.RunMany(fl, workload.New(ss[0].prof), fo)
	})
}

// runTimingGroup resolves one (benchmark, cache geometry) timing group
// through pipeline.RunMany: one pass off the benchmark's generator feeds
// every pipeline configuration of the group, with no sidecar, so the
// engine's shared memory hierarchy classifies each batch once for all
// lanes. The lanes are built from one set of parts (timingLanes), so the
// engine steps each distinct predictor once for the pass.
func runTimingGroup(lanes []*planLane[timingSpec, pipeline.Result], opts Options, tally *FamilyTally) {
	runGroup(lanes, opts, tally, func(ss []timingSpec) []pipeline.Result {
		return pipeline.RunMany(timingLanes(ss), workload.New(ss[0].prof), nil, opts.Insts, opts.Warmup)
	})
}

// timingLanes builds one pass's lanes from one set of parts.
func timingLanes(ss []timingSpec) []pipeline.Lane {
	parts := newTimingParts()
	pl := make([]pipeline.Lane, len(ss))
	for i, s := range ss {
		pl[i] = pipeline.Lane{Cfg: s.cfg, Pred: s.build(parts)}
	}
	return pl
}
