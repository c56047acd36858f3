package pipeline

import (
	"reflect"
	"testing"

	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/workload"
)

// fusedOrgs are the predictor organizations the fused equivalence suite
// sweeps — the timingOrgs set plus the lagged-update and uncheckpointed
// gshare.fast variants, whose recovery penalties and update pipelines
// exercise the engine's cycleAware/RecoveryCost plumbing.
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
		{"override-perceptron-64KB", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				predictor.NewPerceptronFromBudget(64<<10), 4)
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

// TestFusedTimingEquivalence is the engine's correctness contract:
// RunMany over a heterogeneous column — every predictor organization plus
// depth/latency config variants, all on one cache geometry — must
// reproduce each lane's reference run bit for bit, across benchmarks
// (including a stream shorter than the budget) and warmups. The engine
// runs with the sidecar; the reference simulates live caches.
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
			var lanes []Lane
			for _, org := range fusedOrgs() {
				lanes = append(lanes, Lane{Cfg: DefaultConfig(), Pred: org.mk()})
			}
			for _, cfg := range fusedCfgVariants()[1:] {
				lanes = append(lanes, Lane{Cfg: cfg, Pred: predictor.NewGShareFromBudget(16 << 10)})
			}
			fused := RunMany(lanes, rec.Replay(), side, maxInsts, warmup)
			if len(fused) != len(lanes) {
				t.Fatalf("RunMany returned %d results for %d lanes", len(fused), len(lanes))
			}

			// Rebuild each lane's predictor fresh for the reference:
			// predictors are stateful and the fused pass trained the
			// originals.
			var ref []Lane
			for _, org := range fusedOrgs() {
				ref = append(ref, Lane{Cfg: DefaultConfig(), Pred: org.mk()})
			}
			for _, cfg := range fusedCfgVariants()[1:] {
				ref = append(ref, Lane{Cfg: cfg, Pred: predictor.NewGShareFromBudget(16 << 10)})
			}
			for i, l := range ref {
				want := refRun(l.Cfg, l.Pred, rec.Replay(), maxInsts, warmup)
				if !reflect.DeepEqual(fused[i], want) {
					t.Errorf("%s warmup %d lane %d (%s): fused diverges from the reference:\n got %+v\nwant %+v",
						tc.bench, warmup, i, want.Predictor, fused[i], want)
				}
			}
		}
	}
}

// TestFusedTimingLiveCaches pins the no-sidecar path: without a covering
// sidecar the engine simulates each lane's own hierarchy, matching the
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
// fused drive loop at zero: the batch and its shared columns live in the
// engine (allocated once at construction), per-lane state is reused, and
// the sidecar replaces the only allocating cache work. Skipped under
// -race, which instruments allocation.
func TestFusedTimingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := workload.Record(mustProfile(t, "gzip"), 100_000)
	cur := rec.Replay()
	cfg := DefaultConfig()
	side := BuildMemSidecar(rec, MemGeometryOf(cfg))
	lanes := []Lane{
		{Cfg: cfg, Pred: predictor.NewGShareFromBudget(16 << 10)},
		{Cfg: cfg, Pred: predictor.NewPerceptronFromBudget(64 << 10)},
		{Cfg: cfg, Pred: core.New(core.Config{Entries: 1 << 15, Latency: 3})},
	}
	f := newFusedRun(lanes, side, 100_000, 20_000)
	f.sideActive = side.covers(cfg, cur)
	if !f.sideActive {
		t.Fatal("sidecar does not cover the run")
	}
	f.drive(cur) // warm any lazy state
	allocs := testing.AllocsPerRun(10, func() {
		cur.Reset()
		f.insts = 0
		f.drive(cur)
	})
	if allocs != 0 {
		t.Fatalf("fused timing drive loop allocates %.1f objects per run, want 0", allocs)
	}
}
