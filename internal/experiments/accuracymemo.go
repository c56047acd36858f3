package experiments

import (
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// accuracyKey canonically identifies one functional-simulation cell, the
// accuracy counterpart of timingKey. Two cells with equal keys construct
// identical predictors and drive them with identical options over the same
// recorded stream, so their Results are interchangeable. org disambiguates
// non-factory constructions ("" is the stock factory predictor for kind;
// the ablations use "lag64", "buf9", ...); sim disambiguates simulator
// shapes beyond the window ("" is the standard funcsim.Run,
// "blocks.fw8.bb4" the block-prediction path).
type accuracyKey struct {
	kind   string
	org    string
	budget int
	bench  string
	seed   uint64
	insts  int64
	warmup int64
	sim    string
}

// storeKey widens the in-memory key into the persistent store's
// cross-process form, binding it to the recorded stream's content digest.
func (k accuracyKey) storeKey(traceDigest string) resultstore.Key {
	return resultstore.Key{
		Family: "accuracy",
		Kind:   k.kind,
		Org:    k.org,
		Budget: k.budget,
		Bench:  k.bench,
		Seed:   k.seed,
		Insts:  k.insts,
		Warmup: k.warmup,
		// Machine stays "": accuracy cells simulate no timing machine.
		SimOptions: k.sim,
		Trace:      traceDigest,
	}
}

// accuracyEntry serializes one cell's computation, exactly like
// timingEntry.
type accuracyEntry struct {
	once sync.Once
	// res is written inside once.Do and read only after Do returns; the
	// sync.Once serializes it, not AccuracyMemo.mu, so it deliberately has
	// no lockguard annotation.
	res funcsim.Result
}

// AccuracyMemo memoizes functional-simulation Results by canonical cell
// key, the accuracy sibling of TimingMemo: cells duplicated across grids —
// Figure 6's 64 KB points repeat Figure 5's sweep; the fast-family study
// revisits the sweeps at 256 KB — are simulated once per process, and when
// Options.Store is set each distinct cell resolves through the persistent
// store before simulating.
type AccuracyMemo struct {
	mu      sync.Mutex
	entries map[accuracyKey]*accuracyEntry // guarded by mu
	hits    int64                          // guarded by mu
}

// NewAccuracyMemo returns an empty memo.
func NewAccuracyMemo() *AccuracyMemo {
	return &AccuracyMemo{entries: make(map[accuracyKey]*accuracyEntry)}
}

// accuracyMemo is the process-wide memo, sibling to timingMemo.
var accuracyMemo = NewAccuracyMemo()

// AccuracyMemoStats reports the process-wide accuracy memo's footprint:
// distinct cells simulated and duplicate lookups served from memory.
func AccuracyMemoStats() (cells int, hits int64) {
	return accuracyMemo.stats()
}

// stats snapshots the memo's footprint: distinct entries and memory hits.
func (m *AccuracyMemo) stats() (cells int, hits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.hits
}

// resolve publishes the entry's Result: the first caller's compute runs
// inside the once, duplicates (concurrent or later) wait and share it. It
// is the entry's only publication path — result() and the fused
// scheduler's lanes both go through it.
func (e *accuracyEntry) resolve(compute func() funcsim.Result) funcsim.Result {
	e.once.Do(func() { e.res = compute() })
	return e.res
}

// result returns the memoized Result for key, calling compute on first
// use.
func (m *AccuracyMemo) result(key accuracyKey, compute func() funcsim.Result) funcsim.Result {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &accuracyEntry{}
		m.entries[key] = e
	} else {
		m.hits++
	}
	m.mu.Unlock()
	return e.resolve(compute)
}

// cell returns the accuracy Result for the canonical (kind, org, budget,
// sim) cell on prof's recorded stream, memoized in m and — when opts.Store
// is set — in the persistent store. Callers must ensure equal keys always
// denote identical constructions; both memo tiers trade on that.
func (m *AccuracyMemo) cell(kind, org, sim string, budget int, prof workload.Profile, opts Options, compute func() funcsim.Result) funcsim.Result {
	opts = opts.normalize()
	key := accuracyKey{
		kind:   kind,
		org:    org,
		budget: budget,
		bench:  prof.Name,
		seed:   prof.Seed,
		insts:  opts.Insts,
		warmup: opts.Warmup,
		sim:    sim,
	}
	return m.result(key, func() funcsim.Result {
		return storedCompute(key, prof, opts, compute)
	})
}

// storedCompute resolves one cold cell's computation through the
// persistent store when one is configured — the solo compute every
// execution mode shares: cell()'s memo-miss path, the fused scheduler's
// fallback for entries another experiment already owns, and the FuseOff
// lowering all bottom out here.
func storedCompute(key accuracyKey, prof workload.Profile, opts Options, compute func() funcsim.Result) funcsim.Result {
	if opts.Store == nil {
		return compute()
	}
	skey := key.storeKey(traceDigest(prof, opts))
	rec := opts.Store.Do(skey, func() resultstore.Record {
		res := compute()
		return resultstore.Record{Key: skey, Accuracy: &res}
	})
	if rec.Accuracy == nil {
		// A record can only lack its payload if some compute handed the
		// store one; never serve a zero Result for it.
		return compute()
	}
	return *rec.Accuracy
}

// specKey returns s's canonical memo key under opts (already normalized).
func specKey(s accuracySpec, opts Options) accuracyKey {
	return accuracyKey{
		kind:   s.kind,
		org:    s.org,
		budget: s.budget,
		bench:  s.prof.Name,
		seed:   s.prof.Seed,
		insts:  opts.Insts,
		warmup: opts.Warmup,
	}
}

// runSpec simulates spec s alone: a one-lane run of the engine the fused
// pass drives, so per-cell and fused results agree bit for bit.
func runSpec(s accuracySpec, opts Options) funcsim.Result {
	return funcsim.Run(s.build(), source(s.prof, opts), funcsim.Options{
		MaxInsts:    opts.Insts,
		WarmupInsts: opts.Warmup,
	})
}

// specCell resolves one accuracy spec per-cell through the full
// memo → store → simulate tier — the FuseOff lowering.
func (m *AccuracyMemo) specCell(s accuracySpec, opts Options) funcsim.Result {
	return m.cell(s.kind, s.org, "", s.budget, s.prof, opts, func() funcsim.Result {
		return runSpec(s, opts)
	})
}

// acquireLanes is the fused scheduler's memo tier, one lock acquisition
// for a whole group. Specs whose entry this call creates become owned
// lanes — the fusion candidates; in-group duplicates of an owned key
// attach their sink to its lane. Either way a lookup that finds an
// existing entry is a memory hit, exactly as in result() — fusion must
// not change the memo's accounting. Entries that predate the group
// (another experiment's cells, e.g. Figure 6 revisiting Figure 5's 64 KB
// column) are not ours to simulate: they come back preowned and resolve
// solo.
func (m *AccuracyMemo) acquireLanes(specs []accuracySpec, opts Options) (owned, preowned []*fusedLane[accuracySpec, funcsim.Result]) {
	byKey := make(map[accuracyKey]*fusedLane[accuracySpec, funcsim.Result], len(specs))
	m.mu.Lock()
	for _, s := range specs {
		key := specKey(s, opts)
		if l := byKey[key]; l != nil {
			m.hits++
			l.sinks = append(l.sinks, s.sink)
			continue
		}
		e := m.entries[key]
		l := &fusedLane[accuracySpec, funcsim.Result]{spec: s, sinks: []func(funcsim.Result){s.sink}}
		if e != nil {
			m.hits++
			l.resolve = e.resolve
			preowned = append(preowned, l)
			continue
		}
		e = &accuracyEntry{}
		m.entries[key] = e
		l.resolve = e.resolve
		byKey[key] = l
		owned = append(owned, l)
	}
	m.mu.Unlock()
	return owned, preowned
}
