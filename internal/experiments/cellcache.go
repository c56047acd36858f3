package experiments

import (
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// cellResult is a result family the cell cache memoizes: the two payloads
// a resultstore.Record carries.
type cellResult interface {
	funcsim.Result | pipeline.Result
}

// cellEntry is one cell's once-published Result. compute is bound when
// the entry is created — it runs the creating group's store-then-simulate
// sequence (fusion.go) — so whoever resolves the entry first, its creator
// or a concurrent lookup from another group, runs that one computation,
// and every other lookup blocks on the once and shares its Result. The
// once is the only place concurrent cold lookups of a cell coalesce.
type cellEntry[R cellResult] struct {
	once    sync.Once
	compute func() R
	res     R
}

// resolve publishes the entry's Result, computing it on first use.
func (e *cellEntry[R]) resolve() R {
	e.once.Do(func() {
		e.res = e.compute()
		e.compute = nil // the group's specs and sinks are no longer needed
	})
	return e.res
}

// cellCache memoizes one result family by canonical cell key: the same
// resultstore.Key the persistent store reads and writes the cell under.
// A plan collapses its own duplicate cells before they get here; the
// cache resolves a cell once per process across plans — a rerun of an
// experiment, or TimingMemo.Cell lookups — and coalesces concurrent
// lookups of a cold one. The zero value is an empty cache.
type cellCache[R cellResult] struct {
	mu      sync.Mutex
	entries map[resultstore.Key]*cellEntry[R] // guarded by mu
	hits    int64                             // guarded by mu
	fusion  fusionTally                       // guarded by mu
}

// fusionTally counts a cache's scheduler work for -timings: passes run
// (groups whose store tier left at least one cell cold), the lanes those
// passes carried, and how each declared cell was served — by a pass
// (fused) or by the store or an existing entry (solo).
type fusionTally struct {
	groups, lanes, fused, solo int64
}

func (t *fusionTally) add(u fusionTally) {
	t.groups += u.groups
	t.lanes += u.lanes
	t.fused += u.fused
	t.solo += u.solo
}

// stats snapshots the cache's footprint: distinct entries, and lookups
// served by an entry an earlier plan created.
func (c *cellCache[R]) stats() (cells int, hits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.hits
}

// fusionStats snapshots the cache's scheduler tally.
func (c *cellCache[R]) fusionStats() (groups, lanes, fused, solo int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fusion.groups, c.fusion.lanes, c.fusion.fused, c.fusion.solo
}

// storeGet reads key's cell from store, or reports it cold. The store
// serves only records carrying key.Family's payload, and every key a
// cache of R builds names R's family.
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

// TimingMemo is the timing family's cell cache with a one-cell entry
// point, Cell, for custom grids and benchmarks. The experiment registry
// resolves through a process-wide one.
type TimingMemo struct {
	cellCache[pipeline.Result]
}

// NewTimingMemo returns an empty memo.
func NewTimingMemo() *TimingMemo { return &TimingMemo{} }

// Cell returns the timing Result for the canonical (kind, budget, mode)
// organization on prof's stream under the Table 1 machine. It is
// a one-spec group on the grids' own path: memo, then the persistent store
// when opts.Store is set, then simulation.
func (m *TimingMemo) Cell(kind string, budget int, mode TimingMode, prof workload.Profile, opts Options) pipeline.Result {
	plan := newPlan(opts)
	var res pipeline.Result
	plan.addCell(kind, budget, mode, prof, func(r pipeline.Result) { res = r })
	plan.executeWith(&cellCache[funcsim.Result]{}, &m.cellCache)
	return res
}

// accuracyMemo and timingMemo are the process-wide caches every experiment
// plan resolves through.
var (
	accuracyMemo = &cellCache[funcsim.Result]{}
	timingMemo   = NewTimingMemo()
)

// TimingMemoStats reports the process-wide timing cache's footprint:
// distinct cells resolved (simulated or served by the store) and lookups
// an earlier plan's entry served from memory.
func TimingMemoStats() (cells int, hits int64) {
	return timingMemo.stats()
}

// AccuracyMemoStats is TimingMemoStats for the accuracy cache.
func AccuracyMemoStats() (cells int, hits int64) {
	return accuracyMemo.stats()
}

// FusionStats reports the process-wide accuracy scheduler's tally: fused
// passes run, predictor lanes they simulated, and accuracy cells served
// fused vs by the store or memory.
func FusionStats() (groups, lanes, fusedCells, soloCells int64) {
	return accuracyMemo.fusionStats()
}

// TimingFusionStats is FusionStats for the timing scheduler: fused timing
// passes run, pipeline lanes they simulated, and timing cells served
// fused vs by the store or memory.
func TimingFusionStats() (groups, lanes, fusedCells, soloCells int64) {
	return timingMemo.fusionStats()
}
