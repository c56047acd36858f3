package pipeline

import (
	"reflect"
	"testing"

	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// fusedOrgs are the predictor organizations the fused equivalence suite
// sweeps in one column. Lanes whose prediction stage runs once per batch
// (ideal gshare and multi-component, overriding perceptron and 2Bc-gskew)
// mix with clocked lanes (core.NeedsClock), stepped one branch at a time at
// their fetch cycle: gshare.fast, its lagged-update and uncheckpointed
// variants, whose recovery penalties and update pipelines exercise the
// engine's clock/RecoveryCost plumbing, a gshare.fast with a 2-bit buffer,
// whose stale-row fallback makes its predictions depend on the fetch clock,
// and an overriding pair whose slow component is cycle-aware.
func fusedOrgs() []struct {
	name string
	mk   func() predictor.Predictor
} {
	return []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"ideal-gshare-16KB", func() predictor.Predictor {
			return predictor.NewGShareFromBudget(16 << 10)
		}},
		{"ideal-multicomponent-64KB", func() predictor.Predictor {
			return predictor.NewMultiComponentFromBudget(64 << 10)
		}},
		{"override-perceptron-64KB", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				predictor.NewPerceptronFromBudget(64<<10), 4)
		}},
		{"override-2bcgskew-64KB", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				predictor.NewGSkew2BcFromBudget(64<<10), 3)
		}},
		{"override-gshare.fast-slow", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				core.New(core.Config{Entries: 1 << 15, Latency: 3}), 2)
		}},
		{"gshare.fast-64KB", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3})
		}},
		{"gshare.fast-lag64", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3, UpdateLag: 64})
		}},
		{"gshare.fast-nockpt", func() predictor.Predictor {
			return core.WithoutCheckpointing(core.New(core.Config{Entries: 1 << 15, Latency: 3}))
		}},
		{"gshare.fast-buf2", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 4, BufferBits: 2})
		}},
	}
}

// fusedCfgVariants are per-lane machine variations sharing the default
// cache geometry — the depth-sweep and latency shapes the ablation grids
// put in one fused group.
func fusedCfgVariants() []Config {
	deep := DefaultConfig()
	deep.PipelineDepth = 40
	deep.FrontEndDepth = 0 // derive: exercises frontEndDepth resolution per lane
	slowMem := DefaultConfig()
	slowMem.MemLatency = 300
	return []Config{DefaultConfig(), deep, slowMem}
}

// fusedColumn returns a fresh heterogeneous column: every fusedOrgs
// organization on the default machine, then the fusedCfgVariants shapes
// with an ideal gshare, all on one cache geometry, then sharedLanes. Each
// call builds new predictors, since a run trains the ones it is given.
func fusedColumn() []Lane {
	var lanes []Lane
	for _, org := range fusedOrgs() {
		lanes = append(lanes, Lane{Cfg: DefaultConfig(), Pred: org.mk()})
	}
	for _, cfg := range fusedCfgVariants()[1:] {
		lanes = append(lanes, Lane{Cfg: cfg, Pred: predictor.NewGShareFromBudget(16 << 10)})
	}
	return append(lanes, sharedLanes()...)
}

// sharedLanes are lanes that share predictor instances, the shape the
// experiment grids give a pass: an ideal perceptron P, P behind a quick
// gshare Q, a 2Bc-gskew P' behind the same Q (and behind Q again with a
// one-cycle slow latency, which can never override), and P again on a
// deeper machine. The engine steps P, P' and Q once per batch for all of
// them.
func sharedLanes() []Lane {
	q := predictor.NewGShare(2048, 0)
	p := predictor.NewPerceptronFromBudget(32 << 10)
	p2 := predictor.NewGSkew2BcFromBudget(32 << 10)
	return []Lane{
		{Cfg: DefaultConfig(), Pred: p},
		{Cfg: DefaultConfig(), Pred: core.NewOverriding(q, p, 4)},
		{Cfg: DefaultConfig(), Pred: core.NewOverriding(q, p2, 3)},
		{Cfg: DefaultConfig(), Pred: core.NewOverriding(q, p2, 1)},
		{Cfg: fusedCfgVariants()[1], Pred: p},
	}
}

// checkColumn runs fusedColumn through RunMany over the source run makes
// and compares every lane with the reference's live-cache run over the
// source ref makes, bit for bit, each reference lane on predictors of its
// own. It returns the fused results.
func checkColumn(t *testing.T, name string, run func(lanes []Lane) []Result, ref func() trace.Source, maxInsts, warmup int64) []Result {
	t.Helper()
	lanes := fusedColumn()
	fused := run(lanes)
	if len(fused) != len(lanes) {
		t.Fatalf("RunMany returned %d results for %d lanes", len(fused), len(lanes))
	}
	for i := range lanes {
		l := fusedColumn()[i]
		want := refRun(l.Cfg, l.Pred, ref(), maxInsts, warmup)
		if !reflect.DeepEqual(fused[i], want) {
			t.Errorf("%s warmup %d lane %d (%s): fused diverges from the reference:\n got %+v\nwant %+v",
				name, warmup, i, want.Predictor, fused[i], want)
		}
	}
	return fused
}

// TestFusedTimingEquivalence is the engine's correctness contract:
// RunMany over a heterogeneous column — every predictor organization plus
// depth/latency config variants and lanes sharing predictor instances, all
// on one cache geometry — must
// reproduce each lane's reference run bit for bit, across benchmarks
// (including a stream shorter than the budget) and warmups. The engine
// runs with the sidecar; the reference simulates live caches per lane.
func TestFusedTimingEquivalence(t *testing.T) {
	cases := []struct {
		bench    string
		recorded int64
	}{
		{"gzip", 200_000},
		{"mcf", 200_000},
		{"twolf", 80_000}, // shorter than the budget: run stops at stream end
	}
	const maxInsts = 150_000
	for _, tc := range cases {
		rec := workload.Record(mustProfile(t, tc.bench), tc.recorded)
		side := BuildMemSidecar(rec, MemGeometryOf(DefaultConfig()))
		for _, warmup := range []int64{0, 40_000} {
			checkColumn(t, tc.bench, func(lanes []Lane) []Result {
				return RunMany(lanes, rec.Replay(), side, maxInsts, warmup)
			}, func() trace.Source { return rec.Replay() }, maxInsts, warmup)
		}
	}
}

// TestFusedTimingClassifiedEquivalence is the same contract for the runs
// no sidecar covers, where prep classifies each batch with one hierarchy
// shared by the column: a live generator, and a replay cursor that starts
// mid-stream (its sidecar does not cover it). The lanes redirect fetch
// differently, so the shared hierarchy must still leave each lane its own
// I-side tallies; the test fails if every lane reports one L1I miss rate.
func TestFusedTimingClassifiedEquivalence(t *testing.T) {
	const maxInsts, warmup = 150_000, 40_000
	for _, bench := range []string{"gzip", "mcf", "gcc", "eon"} {
		prof := mustProfile(t, bench)
		fused := checkColumn(t, bench+"/generator", func(lanes []Lane) []Result {
			return RunMany(lanes, workload.New(prof), nil, maxInsts, warmup)
		}, func() trace.Source { return workload.New(prof) }, maxInsts, warmup)
		distinct := map[float64]bool{}
		for _, r := range fused {
			distinct[r.L1IMissRate] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: every lane reports L1I miss rate %v; the I-side tallies are not per lane", bench, fused[0].L1IMissRate)
		}
	}

	rec := workload.Record(mustProfile(t, "gzip"), 200_000)
	side := BuildMemSidecar(rec, MemGeometryOf(DefaultConfig()))
	checkColumn(t, "gzip/mid-stream", func(lanes []Lane) []Result {
		return RunMany(lanes, offsetReplay(rec), side, maxInsts, warmup)
	}, func() trace.Source { return offsetReplay(rec) }, maxInsts, warmup)
}

// TestFusedTimingRingGrowth pins the rings' growth path: a lane whose
// memory latency stretches its live window past initRing cycles must grow
// its rings and still match the reference bit for bit, while a Table 1
// lane in the same pass keeps its initial rings.
func TestFusedTimingRingGrowth(t *testing.T) {
	const maxInsts, warmup = 150_000, 40_000
	rec := workload.Record(mustProfile(t, "mcf"), maxInsts)
	slowMem := DefaultConfig()
	slowMem.MemLatency = 4000
	lanes := func() []Lane {
		return []Lane{
			{Cfg: DefaultConfig(), Pred: predictor.NewGShareFromBudget(16 << 10)},
			{Cfg: slowMem, Pred: predictor.NewGShareFromBudget(16 << 10)},
		}
	}
	f := newFusedRun(lanes(), nil, maxInsts, warmup)
	f.drive(rec.Replay())
	got := f.finish(rec.Name())
	if n := len(f.rings[0].words) * 8; n != initRing {
		t.Errorf("Table 1 lane's rings grew to %d cycles, want %d", n, initRing)
	}
	if n := len(f.rings[1].words) * 8; n <= initRing {
		t.Errorf("slow-memory lane's rings stayed at %d cycles; the growth path was not exercised", n)
	}
	for i, l := range lanes() {
		if want := refRun(l.Cfg, l.Pred, rec.Replay(), maxInsts, warmup); !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d diverges from the reference:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestFusedTimingLiveCaches pins the no-sidecar path for one lane: without
// a covering sidecar the engine classifies each batch itself, matching the
// reference's live-cache run.
func TestFusedTimingLiveCaches(t *testing.T) {
	rec := workload.Record(mustProfile(t, "gzip"), 120_000)
	cfg := DefaultConfig()
	mk := func() predictor.Predictor { return predictor.NewGShareFromBudget(16 << 10) }

	t.Run("nil-sidecar", func(t *testing.T) {
		fused := RunMany([]Lane{{Cfg: cfg, Pred: mk()}}, rec.Replay(), nil, 120_000, 30_000)
		want := refRun(cfg, mk(), rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(fused[0], want) {
			t.Errorf("live-cache fused run diverges:\n got %+v\nwant %+v", fused[0], want)
		}
	})

	t.Run("geometry-mismatch", func(t *testing.T) {
		other := MemGeometryOf(cfg)
		other.L1I = cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 1}
		fused := RunMany([]Lane{{Cfg: cfg, Pred: mk()}}, rec.Replay(),
			BuildMemSidecar(rec, other), 120_000, 30_000)
		want := refRun(cfg, mk(), rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(fused[0], want) {
			t.Errorf("mismatched-geometry sidecar was not ignored:\n got %+v\nwant %+v", fused[0], want)
		}
	})

	t.Run("opaque-source", func(t *testing.T) {
		fused := RunMany([]Lane{{Cfg: cfg, Pred: mk()}}, opaqueReplay{rec.Replay()},
			BuildMemSidecar(rec, MemGeometryOf(cfg)), 120_000, 30_000)
		want := refRun(cfg, mk(), rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(fused[0], want) {
			t.Errorf("opaque-source fused run diverges:\n got %+v\nwant %+v", fused[0], want)
		}
	})

	t.Run("inst-source", func(t *testing.T) {
		fused := RunMany([]Lane{{Cfg: cfg, Pred: mk()}}, instSourceOnly{rec.Replay()},
			nil, 120_000, 30_000)
		want := refRun(cfg, mk(), rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(fused[0], want) {
			t.Errorf("InstSource fused run diverges:\n got %+v\nwant %+v", fused[0], want)
		}
	})
}

// TestFusedTimingGeometryGuard pins the grouping contract: lanes with
// different cache geometries cannot share one trace pass.
func TestFusedTimingGeometryGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunMany accepted lanes with mismatched cache geometries")
		}
	}()
	rec := workload.Record(mustProfile(t, "gzip"), 1_000)
	small := DefaultConfig()
	small.L1I = cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 1}
	RunMany([]Lane{
		{Cfg: DefaultConfig(), Pred: predictor.NewGShareFromBudget(4 << 10)},
		{Cfg: small, Pred: predictor.NewGShareFromBudget(4 << 10)},
	}, rec.Replay(), nil, 1_000, 0)
}

// TestFusedTimingAllocs pins the steady-state allocation count of the
// fused drive loop at zero, both over a replay cursor with a covering
// sidecar and over a live generator the engine classifies batch by batch:
// the batch, its shared columns and the shared prediction columns live in
// the engine (allocated once at construction) and per-lane state is
// reused. The column includes lanes that share predictor instances. Skipped under -race, which
// instruments allocation.
func TestFusedTimingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prof := mustProfile(t, "gzip")
	cfg := DefaultConfig()
	lanes := func() []Lane {
		return append([]Lane{
			{Cfg: cfg, Pred: predictor.NewGShareFromBudget(16 << 10)},
			{Cfg: cfg, Pred: predictor.NewPerceptronFromBudget(64 << 10)},
			{Cfg: cfg, Pred: core.New(core.Config{Entries: 1 << 15, Latency: 3})},
			{Cfg: cfg, Pred: core.NewOverriding(predictor.NewGShare(2048, 0), predictor.NewGSkew2BcFromBudget(64<<10), 3)},
		}, sharedLanes()...)
	}

	t.Run("sidecar", func(t *testing.T) {
		rec := workload.Record(prof, 100_000)
		cur := rec.Replay()
		side := BuildMemSidecar(rec, MemGeometryOf(cfg))
		if !side.covers(cfg, cur) {
			t.Fatal("sidecar does not cover the run")
		}
		f := newFusedRun(lanes(), side, 100_000, 20_000)
		f.drive(cur) // warm any lazy state
		allocs := testing.AllocsPerRun(10, func() {
			cur.Reset()
			f.insts = 0
			f.drive(cur)
		})
		if allocs != 0 {
			t.Fatalf("fused timing drive loop allocates %.1f objects per run, want 0", allocs)
		}
	})

	t.Run("generator", func(t *testing.T) {
		gen := workload.New(prof)
		f := newFusedRun(lanes(), nil, 100_000, 20_000)
		f.drive(gen) // warm any lazy state
		allocs := testing.AllocsPerRun(10, func() {
			// The stream is endless: each run drives the next 100K.
			f.maxInsts = f.insts + 100_000
			f.drive(gen)
		})
		if allocs != 0 {
			t.Fatalf("classifying drive loop allocates %.1f objects per run, want 0", allocs)
		}
	})
}
