package experiments

import (
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// This file is the cell scheduler: the one path every accuracy and timing
// cell resolves through. A plan's lanes arrive in groups — accuracy lanes
// by (benchmark, plain or block), timing lanes by (benchmark, cache
// geometry) at most maxTimingLanes to a group, or one lane per group under
// FuseOff — and every group runs
// the same sequence. It acquires its lanes' cache entries under one lock,
// creating the missing ones, then resolves each entry. The first
// resolution of an entry this group created runs the group's computation:
// probe the persistent store for each created cell, simulate whatever is
// still cold in one pass straight off the benchmark's generator
// (funcsim.RunMany or RunManyBlocks for accuracy, pipeline.RunMany for
// timing), and write those cells back. Grouping changes only when
// simulations happen, never what they compute or how they are keyed, so
// fused, -nofuse and warm-store runs are interchangeable byte for byte
// (TestFusedEquivalence, TestFusedStoreFlow, TestFusedTimingPlan).

// groupRun is one group's computation, published once: the first of the
// group's created entries to resolve runs it, and each reads its own
// lane's Result from it.
type groupRun[R cellResult] struct {
	once sync.Once
	res  []R
}

// result returns lane i's Result, running compute on first use.
func (g *groupRun[R]) result(i int, compute func() []R) R {
	g.once.Do(func() { g.res = compute() })
	return g.res[i]
}

// runGroup resolves one group of lanes through c; simulate runs one pass
// over specs of the group, returning Results index-aligned with them.
func runGroup[S specOf[R], R cellResult](c *cellCache[R], lanes []*planLane[S, R], opts Options, simulate func([]S) []R) {
	var owned []*planLane[S, R]
	entries := make([]*cellEntry[R], len(lanes))
	run := &groupRun[R]{}
	compute := func() []R { return computeGroup(c, owned, opts, simulate) }
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[resultstore.Key]*cellEntry[R])
	}
	var solo int64
	for i, l := range lanes {
		key := l.spec.cell().key
		if e := c.entries[key]; e != nil {
			c.hits++
			entries[i] = e
			solo += int64(len(l.sinks))
			continue
		}
		j := len(owned)
		entries[i] = &cellEntry[R]{compute: func() R { return run.result(j, compute) }}
		c.entries[key] = entries[i]
		owned = append(owned, l)
	}
	c.fusion.solo += solo
	c.mu.Unlock()

	for i, l := range lanes {
		res := entries[i].resolve()
		for _, sink := range l.sinks {
			sink(res)
		}
	}
}

// computeGroup is a group's computation over the lanes it created: serve
// each cell the persistent store holds, simulate the rest in one pass, and
// write those back. A cell's key names it whole, so a group the store
// serves entirely never opens its stream.
func computeGroup[S specOf[R], R cellResult](c *cellCache[R], lanes []*planLane[S, R], opts Options, simulate func([]S) []R) []R {
	res := make([]R, len(lanes))
	var tally fusionTally
	var cold []int
	var coldSpecs []S
	for i, l := range lanes {
		if opts.Store != nil {
			if r, ok := storeGet[R](opts.Store, l.spec.cell().key); ok {
				res[i] = r
				tally.solo += int64(len(l.sinks))
				continue
			}
		}
		cold = append(cold, i)
		coldSpecs = append(coldSpecs, l.spec)
	}
	if len(cold) > 0 {
		out := simulate(coldSpecs)
		for j, i := range cold {
			res[i] = out[j]
			if opts.Store != nil {
				storePut(opts.Store, lanes[i].spec.cell().key, out[j])
			}
			tally.fused += int64(len(lanes[i].sinks))
		}
		tally.groups, tally.lanes = 1, int64(len(cold))
	}
	c.mu.Lock()
	c.fusion.add(tally)
	c.mu.Unlock()
	return res
}

// blockFetchWidth is the fetch width of every block-prediction cell, the
// "fw8" of their SimOptions.
const blockFetchWidth = 8

// runAccuracyGroup resolves one accuracy group in one pass over the
// benchmark's generator: plain cells fused through funcsim.RunMany, block
// cells, whose per-block state RunMany does not carry, through
// funcsim.RunManyBlocks, each lane at its own block width.
func runAccuracyGroup(c *cellCache[funcsim.Result], lanes []*planLane[accuracySpec, funcsim.Result], opts Options) {
	runGroup(c, lanes, opts, func(ss []accuracySpec) []funcsim.Result {
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
func runTimingGroup(c *cellCache[pipeline.Result], lanes []*planLane[timingSpec, pipeline.Result], opts Options) {
	runGroup(c, lanes, opts, func(ss []timingSpec) []pipeline.Result {
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
