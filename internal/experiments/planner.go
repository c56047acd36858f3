package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// This file is the experiment layer's planner: experiments do not compute
// their grids inline, they declare a plan of cells — each one a canonical
// key, a predictor construction and a sink — and execute it. Execution
// groups the cells (fusion.go), shards the groups across a worker pool,
// and resolves every cell through the cell cache (cellcache.go), then the
// persistent resultstore when Options.Store is set, then simulation. Sinks
// fan results back into preallocated grid slices; each cell owns exactly
// one element, so the fan-in needs no locking.

// A PlannedCell is one schedulable unit of work: the canonical key naming
// what it computes — the identity a panic is reported under — and the
// closure that computes it.
type PlannedCell struct {
	Key string
	Run func()
}

// cellSpec is one declared cell as the scheduler sees it, whatever its
// family: its canonical cache key (a resultstore.Key with Trace left
// empty), the benchmark whose recorded stream it runs on, the predictor
// construction, and the sink its Result fans back into. Callers must
// ensure equal keys always denote identical constructions; the cache and
// the store both trade on that.
type cellSpec[R cellResult] struct {
	key   resultstore.Key
	prof  workload.Profile
	build func() predictor.Predictor
	sink  func(R)
}

func (s cellSpec[R]) cell() cellSpec[R] { return s }

// specOf is the scheduler's view of a family's spec type.
type specOf[R cellResult] interface {
	cell() cellSpec[R]
}

// An accuracySpec is one accuracy cell. blocks > 0 makes it a §3.3.1
// block-prediction cell: funcsim.RunBlocks predicting up to blocks
// branches per block.
type accuracySpec struct {
	cellSpec[funcsim.Result]
	blocks int
}

// A timingSpec is one timing cell on machine cfg.
type timingSpec struct {
	cellSpec[pipeline.Result]
	cfg pipeline.Config
}

// cellPlan accumulates an experiment's cells before execution. Its options
// are fixed when it is created: the measurement window is part of every
// cell's key.
type cellPlan struct {
	opts Options
	acc  []accuracySpec
	tim  []timingSpec
}

// newPlan returns an empty plan executing under opts.
func newPlan(opts Options) *cellPlan {
	return &cellPlan{opts: opts.normalize()}
}

// key returns the canonical cache key of one of the plan's cells.
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
	}
}

// addAccuracy declares one standard accuracy cell. org disambiguates
// non-factory constructions ("" is the stock factory predictor for kind;
// the ablations use "lag64", "buf9", ...).
func (p *cellPlan) addAccuracy(kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, sink func(funcsim.Result)) {
	p.acc = append(p.acc, accuracySpec{cellSpec: cellSpec[funcsim.Result]{
		key: p.key("accuracy", kind, org, budget, prof), prof: prof, build: build, sink: sink,
	}})
}

// addBlocks declares one block-prediction accuracy cell: build's
// predictor, which must implement funcsim.BlockPredictor, predicting up to
// width branches per block. The simulator shape is the key's SimOptions
// ("blocks.fw8.bb4"), so block cells never collide with standard ones.
func (p *cellPlan) addBlocks(kind string, budget, width int, build func() predictor.Predictor, prof workload.Profile, sink func(funcsim.Result)) {
	key := p.key("accuracy", kind, "", budget, prof)
	key.SimOptions = fmt.Sprintf("blocks.fw%d.bb%d", blockFetchWidth, width)
	p.acc = append(p.acc, accuracySpec{
		cellSpec: cellSpec[funcsim.Result]{key: key, prof: prof, build: build, sink: sink},
		blocks:   width,
	})
}

// addTiming declares one timing cell on machine cfg; the canonical
// rendering of cfg is the key's Machine. org names the organization:
// "ideal" (bare predictor, single-cycle), "override" (behind the 2K-entry
// quick gshare), or an ablation variant ("override.q256", "lag64", ...).
func (p *cellPlan) addTiming(cfg pipeline.Config, kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, sink func(pipeline.Result)) {
	key := p.key("timing", kind, org, budget, prof)
	key.Machine = machineString(cfg)
	p.tim = append(p.tim, timingSpec{
		cellSpec: cellSpec[pipeline.Result]{key: key, prof: prof, build: build, sink: sink},
		cfg:      cfg,
	})
}

// execute runs the plan through the process-wide caches.
func (p *cellPlan) execute() {
	p.executeWith(accuracyMemo, &timingMemo.cellCache)
}

// executeWith runs the plan through explicit caches, so tests can use
// fresh ones. Every group is one worker-pool unit, named by its first
// cell's key and its width.
func (p *cellPlan) executeWith(acc *cellCache[funcsim.Result], tim *cellCache[pipeline.Result]) {
	var cells []PlannedCell
	for _, g := range groupSpecs(p.acc, p.opts.Fuse, accuracyGroupKey) {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("%s|lanes=%d", g[0].key.Canonical(), len(g)),
			Run: func() { runAccuracyGroup(acc, g, p.opts) },
		})
	}
	for _, g := range groupSpecs(p.tim, p.opts.Fuse, timingGroupKey) {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("%s|lanes=%d", g[0].key.Canonical(), len(g)),
			Run: func() { runTimingGroup(tim, g, p.opts) },
		})
	}
	RunCells(p.opts.Parallel, cells)
}

// accuracyGroup keys the fused accuracy unit: one pass per recorded
// stream and simulator shape. The measurement window is uniform across a
// plan, so it needs no key component.
type accuracyGroup struct {
	bench  string
	blocks int
}

func accuracyGroupKey(s accuracySpec) accuracyGroup {
	return accuracyGroup{bench: s.prof.Name, blocks: s.blocks}
}

// timingGroup keys the fused timing unit: one trace pass per recorded
// stream and cache geometry. Lanes in a group share the cursor and the
// memory sidecar, so they must agree on both.
type timingGroup struct {
	bench string
	seed  uint64
	geom  pipeline.MemGeometry
}

func timingGroupKey(s timingSpec) timingGroup {
	return timingGroup{bench: s.prof.Name, seed: s.prof.Seed, geom: pipeline.MemGeometryOf(s.cfg)}
}

// groupSpecs buckets specs by key in first-appearance order — the fused
// unit is "one trace pass per group". FuseOff makes every spec a group of
// one: the same path, one lane per pass.
func groupSpecs[S any, G comparable](specs []S, fuse FuseMode, key func(S) G) [][]S {
	idx := make(map[G]int)
	var groups [][]S
	for i, s := range specs {
		if fuse == FuseOff {
			groups = append(groups, specs[i:i+1])
			continue
		}
		gi, ok := idx[key(s)]
		if !ok {
			gi = len(groups)
			idx[key(s)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], s)
	}
	return groups
}

// cellPanic records the first panic raised by any cell in a plan so the
// scheduler can re-raise it with the offending cell's canonical key — a
// worker-pool panic with no cell context is undebuggable in a 696-cell
// grid.
type cellPanic struct {
	mu    sync.Mutex
	set   bool   // guarded by mu
	key   string // guarded by mu
	val   any    // guarded by mu
	stack string // guarded by mu
}

func (p *cellPanic) record(key string, val any, stack []byte) {
	p.mu.Lock()
	if !p.set {
		p.set, p.key, p.val, p.stack = true, key, val, string(stack)
	}
	p.mu.Unlock()
}

func (p *cellPanic) triggered() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set
}

// rethrow re-raises the recorded panic, now carrying the cell key and the
// original goroutine's stack.
func (p *cellPanic) rethrow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.set {
		panic(fmt.Sprintf("experiments: cell %s panicked: %v\n%s", p.key, p.val, p.stack))
	}
}

// runCell executes one cell, converting a panic into a recorded
// (key, value, stack) triple instead of letting it unwind a bare worker.
func runCell(p *cellPanic, c PlannedCell) {
	defer func() {
		if r := recover(); r != nil {
			p.record(c.Key, r, debug.Stack())
		}
	}()
	c.Run()
}

// RunCells executes cells on a worker pool of at most parallel
// goroutines. Cells must write to disjoint destinations (each owns its
// grid element); plan cells that share a canonical result key coalesce in
// the cell cache rather than here. If any cell panics, the remaining
// cells are skipped and the panic is re-raised from RunCells with the
// offending cell's key prepended.
func RunCells(parallel int, cells []PlannedCell) {
	if parallel > len(cells) {
		parallel = len(cells)
	}
	var pan cellPanic
	if parallel <= 1 {
		for _, c := range cells {
			runCell(&pan, c)
			if pan.triggered() {
				break
			}
		}
		pan.rethrow()
		return
	}
	var wg sync.WaitGroup
	next := make(chan PlannedCell)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if pan.triggered() {
					continue
				}
				runCell(&pan, c)
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	pan.rethrow()
}
