package experiments

import (
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/trace"
)

// This file is the cell scheduler: the one path every accuracy and timing
// cell resolves through. A plan's specs arrive in groups — accuracy cells
// by (benchmark, block width), timing cells by (benchmark, cache
// geometry), or one spec per group under FuseOff — and every group runs
// the same sequence. It acquires its cells' cache entries under one lock,
// creating the missing ones, then resolves each entry. The first
// resolution of an entry this group created runs the group's computation:
// probe the persistent store for each created cell, simulate whatever is
// still cold in one trace pass (funcsim.RunMany or RunBlocks for
// accuracy, pipeline.RunMany for timing), and write those cells back.
// Grouping changes only when simulations happen, never what they compute
// or how they are keyed, so fused, -nofuse and warm-store runs are
// interchangeable byte for byte (TestFusedEquivalence, TestFusedStoreFlow,
// TestFusedTimingPlan).

// fusedLane is one distinct cell of a group: its spec, its cache entry,
// and every sink waiting on it — the declaring spec's plus any in-group
// duplicates'. owned marks an entry this group created; the others
// predate the group and resolve through their creator's computation.
type fusedLane[S any, R cellResult] struct {
	spec  S
	entry *cellEntry[R]
	sinks []func(R)
	owned bool
}

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

// runGroup resolves one group of specs through c; simulate runs one trace
// pass over specs of the group, returning Results index-aligned with them.
func runGroup[S specOf[R], R cellResult](c *cellCache[R], specs []S, opts Options, simulate func([]S) []R) {
	var lanes, owned []*fusedLane[S, R]
	run := &groupRun[R]{}
	compute := func() []R { return computeGroup(c, owned, opts, simulate) }
	byKey := make(map[resultstore.Key]*fusedLane[S, R], len(specs))
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[resultstore.Key]*cellEntry[R])
	}
	for _, s := range specs {
		cs := s.cell()
		if l := byKey[cs.key]; l != nil {
			c.hits++
			l.sinks = append(l.sinks, cs.sink)
			continue
		}
		l := &fusedLane[S, R]{spec: s, entry: c.entries[cs.key], sinks: []func(R){cs.sink}}
		if l.entry != nil {
			c.hits++
		} else {
			i := len(owned)
			l.entry = &cellEntry[R]{compute: func() R { return run.result(i, compute) }}
			l.owned = true
			c.entries[cs.key] = l.entry
			owned = append(owned, l)
		}
		byKey[cs.key] = l
		lanes = append(lanes, l)
	}
	c.mu.Unlock()

	var solo int64
	for _, l := range lanes {
		res := l.entry.resolve()
		for _, sink := range l.sinks {
			sink(res)
		}
		if !l.owned {
			solo += int64(len(l.sinks))
		}
	}
	c.mu.Lock()
	c.fusion.solo += solo
	c.mu.Unlock()
}

// computeGroup is a group's computation over the lanes it created: serve
// each cell the persistent store holds, simulate the rest in one pass, and
// write those back. A cell's key names it whole, so a group the store
// serves entirely never touches its stream.
func computeGroup[S specOf[R], R cellResult](c *cellCache[R], lanes []*fusedLane[S, R], opts Options, simulate func([]S) []R) []R {
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

// runAccuracyGroup resolves one accuracy group: plain cells fused into one
// funcsim.RunMany pass over the benchmark's branch cursor, block cells
// through funcsim.RunBlocks, whose per-block state RunMany does not carry.
func runAccuracyGroup(c *cellCache[funcsim.Result], specs []accuracySpec, opts Options) {
	runGroup(c, specs, opts, func(ss []accuracySpec) []funcsim.Result {
		fo := funcsim.Options{MaxInsts: opts.Insts, WarmupInsts: opts.Warmup}
		if w := ss[0].blocks; w > 0 {
			fo.FetchWidth, fo.BlockBranches = blockFetchWidth, w
			out := make([]funcsim.Result, len(ss))
			for i, s := range ss {
				p := s.build()
				out[i] = funcsim.RunBlocks(p.(funcsim.BlockPredictor), p.Name(), source(s.prof, opts), fo)
			}
			return out
		}
		// source returns a replay cursor, which serves its branches from
		// the recording's branch index.
		bs := source(ss[0].prof, opts).(trace.BranchSource)
		lanes := make([]funcsim.Lane, len(ss))
		for i, s := range ss {
			lanes[i] = funcsim.Lane{P: s.build()}
		}
		return funcsim.RunMany(lanes, bs, fo)
	})
}

// runTimingGroup resolves one (benchmark, cache geometry) timing group
// through pipeline.RunMany: one trace cursor and one memory sidecar feed
// every pipeline configuration of the group.
func runTimingGroup(c *cellCache[pipeline.Result], specs []timingSpec, opts Options) {
	runGroup(c, specs, opts, func(ss []timingSpec) []pipeline.Result {
		// pipeline.RunMany accepts any source — it classifies each batch
		// itself when the sidecar does not cover the run.
		lanes := make([]pipeline.Lane, len(ss))
		for i, s := range ss {
			lanes[i] = pipeline.Lane{Cfg: s.cfg, Pred: s.build()}
		}
		return pipeline.RunMany(lanes, source(ss[0].prof, opts),
			sidecar(ss[0].prof, opts, ss[0].cfg), opts.Insts, opts.Warmup)
	})
}
