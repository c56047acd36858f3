package experiments

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// This file is the experiment layer's planner: experiments do not compute
// their grids inline, they declare cells into one plan per run — each
// cell a canonical key, a predictor construction and a sink — and render
// once it has executed. Execution collapses cells declared under one key
// into one lane with several sinks — the plan is the only in-process
// dedup — groups the lanes (fusion.go), shards the groups across a worker
// pool, and resolves every lane through the persistent resultstore when
// Options.Store is set, then simulation. Sinks fan results back into
// preallocated grid slices; each sink owns exactly one element, so the
// fan-in needs no locking.

// A PlannedCell is one schedulable unit of work: the canonical key naming
// what it computes — the identity a panic is reported under — and the
// closure that computes it.
type PlannedCell struct {
	Key string
	Run func()
}

// cellSpec is one declared cell as the scheduler sees it, whatever its
// family: its canonical key (the resultstore.Key the plan collapses on and
// the persistent store reads and writes), the benchmark whose stream it
// runs on, and the sink its Result fans back into. Each family's spec adds
// its predictor construction. Callers must ensure equal keys always denote
// identical constructions; the plan and the store both trade on that.
type cellSpec[R cellResult] struct {
	key  resultstore.Key
	prof workload.Profile
	sink func(R)
}

func (s cellSpec[R]) cell() cellSpec[R] { return s }

// specOf is the scheduler's view of a family's spec type.
type specOf[R cellResult] interface {
	cell() cellSpec[R]
}

// An accuracySpec is one accuracy cell, built fresh by build. blocks > 0
// makes it a §3.3.1 block-prediction cell: funcsim.RunBlocks predicting
// up to blocks branches per block.
type accuracySpec struct {
	cellSpec[funcsim.Result]
	build  func() predictor.Predictor
	blocks int
}

// A timingSpec is one timing cell on machine cfg. build assembles its
// organization from its pass's parts.
type timingSpec struct {
	cellSpec[pipeline.Result]
	build func(*timingParts) predictor.Predictor
	cfg   pipeline.Config
}

// cellPlan accumulates a run's cells before execution: every experiment
// of the run declares into the same plan. Its options are fixed when it is
// created: the measurement window is part of every cell's key.
type cellPlan struct {
	opts Options
	acc  []accuracySpec
	tim  []timingSpec
	// machines memoises machineString per machine config: a run declares
	// hundreds of timing cells on a handful of machines.
	machines map[pipeline.Config]string
}

// newPlan returns an empty plan executing under opts.
func newPlan(opts Options) *cellPlan {
	return &cellPlan{opts: opts.normalize(), machines: map[pipeline.Config]string{}}
}

// key returns the canonical key of one of the plan's cells. Kind, Org
// and Budget name the construction in full: its latencies, quick
// predictor and pipeline depth follow from them under delaymodel.Default,
// whose coefficients Code covers, so no predictor is built to name a
// cell.
func (p *cellPlan) key(family, kind, org string, budget int, prof workload.Profile) resultstore.Key {
	return resultstore.Key{
		Family: family,
		Kind:   kind,
		Org:    org,
		Budget: budget,
		Bench:  prof.Name,
		Seed:   prof.Seed,
		Insts:  p.opts.Insts,
		Warmup: p.opts.Warmup,
		Code:   cellCode,
	}
}

// addAccuracy declares one standard accuracy cell. org disambiguates
// non-factory constructions ("" is the stock factory predictor for kind;
// the ablations use "lag64", "buf9", ...).
func (p *cellPlan) addAccuracy(kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, sink func(funcsim.Result)) {
	p.acc = append(p.acc, accuracySpec{
		cellSpec: cellSpec[funcsim.Result]{key: p.key("accuracy", kind, org, budget, prof), prof: prof, sink: sink},
		build:    build,
	})
}

// addBlocks declares one block-prediction accuracy cell: build's
// predictor, which must implement funcsim.BlockPredictor, predicting up to
// width branches per block. The simulator shape is the key's SimOptions
// ("blocks.fw8.bb4"), so block cells never collide with standard ones.
func (p *cellPlan) addBlocks(kind string, budget, width int, build func() predictor.Predictor, prof workload.Profile, sink func(funcsim.Result)) {
	key := p.key("accuracy", kind, "", budget, prof)
	key.SimOptions = fmt.Sprintf("blocks.fw%d.bb%d", blockFetchWidth, width)
	p.acc = append(p.acc, accuracySpec{
		cellSpec: cellSpec[funcsim.Result]{key: key, prof: prof, sink: sink},
		build:    build,
		blocks:   width,
	})
}

// addTiming declares one timing cell on machine cfg; the canonical
// rendering of cfg is the key's Machine. org names the organization:
// "ideal" (bare predictor, single-cycle), "override" (behind the 2K-entry
// quick gshare), or an ablation variant ("override.q256", "lag64", ...).
// build assembles the organization from its pass's parts (timingParts).
func (p *cellPlan) addTiming(cfg pipeline.Config, kind, org string, budget int, build func(*timingParts) predictor.Predictor, prof workload.Profile, sink func(pipeline.Result)) {
	key := p.key("timing", kind, org, budget, prof)
	m, ok := p.machines[cfg]
	if !ok {
		m = machineString(cfg)
		p.machines[cfg] = m
	}
	key.Machine = m
	p.tim = append(p.tim, timingSpec{
		cellSpec: cellSpec[pipeline.Result]{key: key, prof: prof, sink: sink},
		build:    build,
		cfg:      cfg,
	})
}

// A FamilyTally is one result family's account of a plan's execution:
// the distinct cells it resolved, the declared cells collapsed at plan
// time into a lane declared earlier under the same key, the passes run
// (groups the store left at least one cell cold in) and the lanes they
// carried, and how each declared cell was served — by a pass (Fused) or by
// the persistent store (Stored).
type FamilyTally struct {
	Cells, Collapsed int
	Passes, Lanes    int
	Fused, Stored    int
}

// A Tally is a plan's execution account, per family.
type Tally struct {
	Accuracy, Timing FamilyTally
}

// execute runs the plan and returns its tally. Every group is one
// worker-pool unit, named by its first lane's key and its width, and
// counts its work into its own slot of a slice preallocated here; the
// slots are merged once RunCells has joined, so the tally needs no lock.
// A timing cell whose measured window spans no cycles has no IPC to
// render: the first such cell in declaration order fails the plan.
func (p *cellPlan) execute() (Tally, error) {
	accLanes := collapse(p.acc)
	timLanes := collapse(p.tim)
	accWidth, timWidth := 0, maxTimingLanes
	if p.opts.Fuse == FuseOff {
		accWidth, timWidth = 1, 1
	}
	accGroups := groupLanes(accLanes, accWidth, accuracyGroupKey)
	timGroups := groupLanes(timLanes, timWidth, timingGroupKey)
	accSlots := make([]FamilyTally, len(accGroups))
	timSlots := make([]FamilyTally, len(timGroups))
	cells := make([]PlannedCell, 0, len(accGroups)+len(timGroups))
	for i, g := range accGroups {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("%s|lanes=%d", g[0].spec.key.Canonical(), len(g)),
			Run: func() { runAccuracyGroup(g, p.opts, &accSlots[i]) },
		})
	}
	for i, g := range timGroups {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("%s|lanes=%d", g[0].spec.key.Canonical(), len(g)),
			Run: func() { runTimingGroup(g, p.opts, &timSlots[i]) },
		})
	}
	RunCells(p.opts.Parallel, cells)
	for _, l := range timLanes {
		if err := l.res.CheckCycles(); err != nil {
			k := l.spec.key
			return Tally{}, fmt.Errorf("experiments: timing cell %s/%s at %d B on %s: %v", k.Kind, k.Org, k.Budget, k.Bench, err)
		}
	}
	return Tally{
		Accuracy: familyTally(accSlots, len(accLanes), len(p.acc)),
		Timing:   familyTally(timSlots, len(timLanes), len(p.tim)),
	}, nil
}

// familyTally merges one family's group slots, the plan's distinct cells
// and its declared cells into the family's tally.
func familyTally(slots []FamilyTally, distinct, declared int) FamilyTally {
	t := FamilyTally{Cells: distinct, Collapsed: declared - distinct}
	for _, s := range slots {
		t.Passes += s.Passes
		t.Lanes += s.Lanes
		t.Fused += s.Fused
		t.Stored += s.Stored
	}
	return t
}

// A planLane is one distinct cell of a plan: the spec first declared
// under its key, the sinks of every spec declared under it, and the
// Result its group resolved.
type planLane[S specOf[R], R cellResult] struct {
	spec  S
	sinks []func(R)
	res   R
}

// collapse merges specs declared under equal keys — Figures 6 and 8
// revisit the 64 KB points of Figures 5 and 7, gshare.fast's ideal and
// realistic cells are one organization, the ablations revisit figure
// cells at their budgets — into one lane each, in first-declaration order.
func collapse[S specOf[R], R cellResult](specs []S) []*planLane[S, R] {
	byKey := make(map[resultstore.Key]*planLane[S, R], len(specs))
	var lanes []*planLane[S, R]
	for _, s := range specs {
		c := s.cell()
		if l := byKey[c.key]; l != nil {
			l.sinks = append(l.sinks, c.sink)
			continue
		}
		l := &planLane[S, R]{spec: s, sinks: []func(R){c.sink}}
		byKey[c.key] = l
		lanes = append(lanes, l)
	}
	return lanes
}

// accuracyGroup keys the fused accuracy unit: one pass per benchmark
// stream and simulator, plain or block; block lanes of every width share
// a pass. The measurement window is uniform across a plan, so it needs no
// key component.
type accuracyGroup struct {
	bench  string
	seed   uint64
	blocks bool
}

func accuracyGroupKey(s accuracySpec) accuracyGroup {
	return accuracyGroup{bench: s.prof.Name, seed: s.prof.Seed, blocks: s.blocks > 0}
}

// timingGroup keys the fused timing unit: one pass per benchmark stream
// and cache geometry, split at maxTimingLanes. Lanes in a pass share the
// stream and the memory hierarchy that classifies it, so they must agree
// on both.
type timingGroup struct {
	bench string
	seed  uint64
	geom  pipeline.MemGeometry
}

func timingGroupKey(s timingSpec) timingGroup {
	return timingGroup{bench: s.prof.Name, seed: s.prof.Seed, geom: pipeline.MemGeometryOf(s.cfg)}
}

// groupLanes buckets lanes by their spec's group key in first-appearance
// order — the fused unit is "one pass per group" — and splits each bucket
// into groups of at most width lanes, in declaration order. width 0 leaves
// buckets whole; FuseOff is width 1: the same path, one lane per pass.
func groupLanes[S specOf[R], R cellResult, G comparable](lanes []*planLane[S, R], width int, key func(S) G) [][]*planLane[S, R] {
	idx := make(map[G]int)
	var buckets [][]*planLane[S, R]
	for _, l := range lanes {
		bi, ok := idx[key(l.spec)]
		if !ok {
			bi = len(buckets)
			idx[key(l.spec)] = bi
			buckets = append(buckets, nil)
		}
		buckets[bi] = append(buckets[bi], l)
	}
	var groups [][]*planLane[S, R]
	for _, b := range buckets {
		for width > 0 && len(b) > width {
			groups = append(groups, b[:width:width])
			b = b[width:]
		}
		groups = append(groups, b)
	}
	return groups
}

// maxTimingLanes caps a timing pass: a (benchmark, cache geometry) group
// wider than this runs as several passes off the generator, each of at
// most maxTimingLanes lanes in declaration order. Every lane of a pass
// keeps its scoreboard rings and predictor tables live across batches, so
// the cap bounds the state a pass holds. Figures 2, 7 and 8 at 125K
// instructions (42 timing lanes per benchmark) ran at wall parity as one
// pass per benchmark and as the 24- and 18-lane passes this cap makes
// (medians of 10 alternating runs, 1.83 vs 1.87 s), but the one wide pass
// peaked at ~24 MB instead of ~19 MB (2-core x86-64 host). Declaration
// order keeps a (kind, budget)'s ideal and overriding lanes in one pass,
// so the split costs no predictor built twice (TestTimingPassesShareParts).
const maxTimingLanes = 24

// A workerPanic is one worker's first panic: the index and key of the cell
// that raised it, the value and the goroutine's stack, so RunCells can
// re-raise it with the cell's canonical key — a worker-pool panic with no
// cell context is undebuggable in a 696-cell grid.
type workerPanic struct {
	index int
	key   string
	val   any
	stack string
}

// runCell executes cell i, converting a panic into a workerPanic instead of
// letting it unwind a bare worker; it returns nil when the cell completes.
func runCell(i int, c PlannedCell) (p *workerPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &workerPanic{index: i, key: c.Key, val: r, stack: string(debug.Stack())}
		}
	}()
	c.Run()
	return nil
}

// RunCells executes cells on a pool of at most parallel workers, the
// caller itself being the first, so one worker starts no goroutine.
// Workers take cell indices in order from one counter and share nothing
// else: each returns its own first panic when it exits. Cells must write
// to disjoint destinations (each owns its grid element); plan cells that
// share a canonical result key collapse into one lane before they get
// here. Once a cell panics, no worker takes another cell, and RunCells
// re-raises the panic of the lowest-index panicking cell with its key
// prepended. A taken cell always runs, so that cell ran whatever the
// schedule: the report does not depend on timing.
func RunCells(parallel int, cells []PlannedCell) {
	parallel = max(1, min(parallel, len(cells)))
	var next atomic.Int64
	var stop atomic.Bool
	work := func() *workerPanic {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(cells) {
				break
			}
			if p := runCell(i, cells[i]); p != nil {
				stop.Store(true)
				return p
			}
		}
		return nil
	}
	done := make(chan *workerPanic, parallel-1)
	for w := 1; w < parallel; w++ {
		go func() { done <- work() }()
	}
	first := work()
	for w := 1; w < parallel; w++ {
		if p := <-done; p != nil && (first == nil || p.index < first.index) {
			first = p
		}
	}
	if first != nil {
		panic(fmt.Sprintf("experiments: cell %s panicked: %v\n%s", first.key, first.val, first.stack))
	}
}
