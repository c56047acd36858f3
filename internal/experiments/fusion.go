package experiments

import (
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/trace"
)

// This file is the fused scheduler: the execution strategy behind
// plan.execute's FuseAuto lowering, for both cell families. A plan's
// accuracy specs arrive grouped by benchmark and its timing specs by
// (benchmark, cache geometry); each group resolves through the same tiers a
// per-cell run would — in-process memo, then the persistent store — and
// whatever survives both becomes lanes of a single fused trace pass
// (funcsim.RunMany for accuracy, pipeline.RunMany for timing). Fusion
// changes only when simulations happen, never what they compute or how
// they are keyed: every lane's Result is published into the memo and the
// store under its unchanged per-cell canonical key, so a warm rerun, a
// -nofuse rerun, and a fused run are interchangeable byte for byte
// (TestFusedEquivalence, TestFusedStoreFlow, TestFusedTimingPlan).
//
// The two schedulers share all lane/group/publish machinery below; they
// differ only in their spec type and their group-run function, supplied
// through fusedGroupParams. The memo entries themselves (accuracyEntry,
// timingEntry) stay concrete so the oncepublish and lockguard analyzers
// keep certifying their publication protocol.

// FusionCounters tallies one fused scheduler's work for -timings: how many
// groups actually simulated (groups whose memo and store tiers left at
// least one cold lane), how many lanes those passes carried, and how each
// declared cell was ultimately served — from a fused lane, or solo (memo
// or store tier). The accuracy and timing schedulers
// each keep their own instance.
type FusionCounters struct {
	mu     sync.Mutex
	groups int64 // guarded by mu
	lanes  int64 // guarded by mu
	fused  int64 // guarded by mu
	solo   int64 // guarded by mu
}

func (c *FusionCounters) add(groups, lanes, fused, solo int64) {
	c.mu.Lock()
	c.groups += groups
	c.lanes += lanes
	c.fused += fused
	c.solo += solo
	c.mu.Unlock()
}

// fusionCounters is the process-wide accuracy tally, sibling to
// accuracyMemo; timingFusionCounters is the timing tally, sibling to
// timingMemo.
var (
	fusionCounters       = &FusionCounters{}
	timingFusionCounters = &FusionCounters{}
)

// FusionStats reports the process-wide fused accuracy-scheduler counters:
// fused trace passes run, predictor lanes they simulated, and accuracy
// cells served fused vs solo.
func FusionStats() (groups, lanes, fusedCells, soloCells int64) {
	return fusionCounters.stats()
}

// TimingFusionStats is FusionStats for the fused timing scheduler: fused
// timing passes run, pipeline lanes they simulated, and timing cells
// served fused vs solo.
func TimingFusionStats() (groups, lanes, fusedCells, soloCells int64) {
	return timingFusionCounters.stats()
}

// stats snapshots the counters.
func (c *FusionCounters) stats() (groups, lanes, fused, solo int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups, c.lanes, c.fused, c.solo
}

// fusedLane is one distinct cold-candidate cell of a fused group: its
// spec, the resolve guard of the memo entry this group owns (created in
// the memo tier, published exactly once), and every sink waiting on it —
// the owning spec's plus any in-group duplicates'.
type fusedLane[S, R any] struct {
	spec    S
	resolve func(compute func() R) R
	sinks   []func(R)
}

// publish resolves the lane's entry exactly once via compute, fans the
// published Result out to every sink, and returns it. When the entry was
// already resolved (a racing per-cell lookup got there first), the sinks
// see the previously published value, not compute's — the entry's once is
// the arbiter, same as the memos' result paths.
func (l *fusedLane[S, R]) publish(compute func() R) R {
	res := l.resolve(compute)
	for _, sink := range l.sinks {
		sink(res)
	}
	return res
}

// fusedGroupParams supplies the spec-type-specific pieces of one fused
// group's resolution; everything else — tier order, publication, counter
// accounting — is shared by runFusedGroupOf.
type fusedGroupParams[S, R any] struct {
	// acquire is the memo tier: classify the group's specs under one lock
	// acquisition into owned lanes (entries this group created, the fusion
	// candidates) and preowned lanes (entries that predate the group —
	// another experiment's cells — which are not ours to simulate).
	acquire func(specs []S) (owned, preowned []*fusedLane[S, R])
	// solo is the full per-cell compute for one spec, resolving through
	// the persistent store when one is configured.
	solo func(S) R
	// probe is the store tier's read for one spec; false when the cell is
	// cold or no store is configured.
	probe func(S) (R, bool)
	// put writes one fused-computed cell back to the store; a no-op
	// without a store.
	put func(S, R)
	// runCold is the fused pass over the residual cold specs, returning
	// results index-aligned with them.
	runCold func(specs []S) []R
}

// runFusedGroupOf resolves one group: memo tier, store tier, then one
// fused pass over whatever is still cold. The Get/Put pair counts store
// traffic exactly as the per-cell Do path does, so -timings reads
// identically with and without fusion.
func runFusedGroupOf[S, R any](p fusedGroupParams[S, R], fc *FusionCounters, specs []S) {
	owned, preowned := p.acquire(specs)

	// A pre-existing entry is usually already computed and its once a
	// no-op; the solo compute is the defensive path for an entry someone
	// created but never resolved.
	for _, l := range preowned {
		l.publish(func() R { return p.solo(l.spec) })
		fc.add(0, 0, 0, int64(len(l.sinks)))
	}

	// Store tier: probe each owned lane's cell on disk.
	cold := owned[:0]
	for _, l := range owned {
		if res, ok := p.probe(l.spec); ok {
			l.publish(func() R { return res })
			fc.add(0, 0, 0, int64(len(l.sinks)))
			continue
		}
		cold = append(cold, l)
	}
	if len(cold) == 0 {
		return
	}

	// Fused pass: one trace pass feeds every residual cold lane.
	coldSpecs := make([]S, len(cold))
	for i, l := range cold {
		coldSpecs[i] = l.spec
	}
	results := p.runCold(coldSpecs)
	var fusedCells int64
	for i, l := range cold {
		res := l.publish(func() R { return results[i] })
		p.put(l.spec, res)
		fusedCells += int64(len(l.sinks))
	}
	fc.add(1, int64(len(cold)), fusedCells, 0)
}

// runFusedGroup resolves one benchmark's accuracy specs through the shared
// scheduler, fused via funcsim.RunMany.
func runFusedGroup(m *AccuracyMemo, fc *FusionCounters, specs []accuracySpec, opts Options) {
	opts = opts.normalize()
	var digest string // bound on first store probe, reused by put
	runFusedGroupOf(fusedGroupParams[accuracySpec, funcsim.Result]{
		acquire: func(ss []accuracySpec) (owned, preowned []*fusedLane[accuracySpec, funcsim.Result]) {
			return m.acquireLanes(ss, opts)
		},
		solo: func(s accuracySpec) funcsim.Result {
			return storedCompute(specKey(s, opts), s.prof, opts, func() funcsim.Result {
				return runSpec(s, opts)
			})
		},
		probe: func(s accuracySpec) (funcsim.Result, bool) {
			if opts.Store == nil {
				return funcsim.Result{}, false
			}
			if digest == "" {
				digest = traceDigest(s.prof, opts)
			}
			rec, ok := opts.Store.Get(specKey(s, opts).storeKey(digest))
			if !ok || rec.Accuracy == nil {
				return funcsim.Result{}, false
			}
			return *rec.Accuracy, true
		},
		put: func(s accuracySpec, res funcsim.Result) {
			if opts.Store == nil {
				return
			}
			skey := specKey(s, opts).storeKey(digest)
			opts.Store.Put(skey, resultstore.Record{Key: skey, Accuracy: &res})
		},
		runCold: func(ss []accuracySpec) []funcsim.Result {
			// source returns a replay cursor, which serves its branches
			// from the recording's branch index.
			bs := source(ss[0].prof, opts).(trace.BranchSource)
			fl := make([]funcsim.Lane, len(ss))
			for i, s := range ss {
				fl[i] = funcsim.Lane{P: s.build()}
			}
			return funcsim.RunMany(fl, bs, funcsim.Options{
				MaxInsts:    opts.Insts,
				WarmupInsts: opts.Warmup,
			})
		},
	}, fc, specs)
}

// runFusedTimingGroup resolves one (benchmark, cache geometry) group's
// timing specs through the shared scheduler, fused via pipeline.RunMany:
// one trace cursor and one memory sidecar feed every pipeline
// configuration of the group.
func runFusedTimingGroup(m *TimingMemo, fc *FusionCounters, specs []timingSpec, opts Options) {
	opts = opts.normalize()
	var digest string // bound on first store probe, reused by put
	runFusedGroupOf(fusedGroupParams[timingSpec, pipeline.Result]{
		acquire: func(ss []timingSpec) (owned, preowned []*fusedLane[timingSpec, pipeline.Result]) {
			return m.acquireLanes(ss, opts)
		},
		solo: func(s timingSpec) pipeline.Result {
			return storedComputeTiming(specTimingKey(s, opts), s.prof, opts, func() pipeline.Result {
				return timingRunCfg(s.cfg, s.build, s.prof, opts)
			})
		},
		probe: func(s timingSpec) (pipeline.Result, bool) {
			if opts.Store == nil {
				return pipeline.Result{}, false
			}
			if digest == "" {
				digest = traceDigest(s.prof, opts)
			}
			rec, ok := opts.Store.Get(specTimingKey(s, opts).storeKey(digest))
			if !ok || rec.Timing == nil {
				return pipeline.Result{}, false
			}
			return *rec.Timing, true
		},
		put: func(s timingSpec, res pipeline.Result) {
			if opts.Store == nil {
				return
			}
			skey := specTimingKey(s, opts).storeKey(digest)
			opts.Store.Put(skey, resultstore.Record{Key: skey, Timing: &res})
		},
		runCold: func(ss []timingSpec) []pipeline.Result {
			// pipeline.RunMany accepts any source — it simulates per-lane
			// live caches when the sidecar does not cover the run.
			lanes := make([]pipeline.Lane, len(ss))
			for i, s := range ss {
				lanes[i] = pipeline.Lane{Cfg: s.cfg, Pred: s.build()}
			}
			return pipeline.RunMany(lanes, source(ss[0].prof, opts),
				sidecar(ss[0].prof, opts, ss[0].cfg), opts.Insts, opts.Warmup)
		},
	}, fc, specs)
}
