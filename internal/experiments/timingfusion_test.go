package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// timingFusionTestOpts is the measurement window of this file's grids.
var timingFusionTestOpts = Options{Insts: 125_000, Warmup: 31_000}

// timingFusionGrid declares a configs × kinds × benchmarks timing grid into
// plan and returns the slice the sinks fill, indexed in declaration order.
// The config axis varies pipeline depth on the shared default cache
// geometry — the DepthSweep shape — so under fusion each benchmark is one
// group.
func timingFusionGrid(plan *cellPlan, depths []int, kinds []string, nBench int) []pipeline.Result {
	const budget = 16 << 10
	profiles := workload.Profiles()[:nBench]
	out := make([]pipeline.Result, len(depths)*len(kinds)*len(profiles))
	i := 0
	for _, depth := range depths {
		cfg := pipeline.DefaultConfig()
		cfg.PipelineDepth = depth
		cfg.FrontEndDepth = depth / 2
		for _, kind := range kinds {
			org := fmt.Sprintf("d%d", depth)
			for _, prof := range profiles {
				slot := &out[i]
				i++
				plan.addTiming(cfg, kind, org, budget, func(*timingParts) predictor.Predictor {
					return mustPredictor(kind, budget)
				}, prof, func(res pipeline.Result) { *slot = res })
			}
		}
	}
	return out
}

// TestFusedTimingPlan is the fused timing scheduler's correctness contract
// at the plan level: the same grid executed fused and in groups of one
// (FuseOff) must fill every sink with bit-identical Results, and the fused execution
// must run exactly one pass per (benchmark, geometry) group.
func TestFusedTimingPlan(t *testing.T) {
	depths := []int{14, 26}
	kinds := []string{"gshare", "gshare.fast"}
	const nBench = 3
	off := timingFusionTestOpts
	off.Fuse = FuseOff
	fusedPlan, soloPlan := newPlan(timingFusionTestOpts), newPlan(off)
	fused := timingFusionGrid(fusedPlan, depths, kinds, nBench)
	solo := timingFusionGrid(soloPlan, depths, kinds, nBench)

	tally := mustExecute(t, fusedPlan).Timing
	mustExecute(t, soloPlan)

	for i := range fused {
		if !reflect.DeepEqual(fused[i], solo[i]) {
			t.Errorf("cell %d diverges between fused and FuseOff execution:\n got %+v\nwant %+v",
				i, fused[i], solo[i])
		}
	}
	wantLanes := len(depths) * len(kinds) * nBench
	if tally.Passes != nBench || tally.Lanes != wantLanes || tally.Fused != wantLanes || tally.Stored != 0 {
		t.Errorf("timing fused tally = %+v; want %d passes, %d lanes, %d fused, 0 stored", tally, nBench, wantLanes, wantLanes)
	}
}

// TestFusedTimingWideGroupSplits holds a group wider than maxTimingLanes
// to the same contract: it runs as several passes off the generator, split
// in declaration order, and every lane equals its FuseOff run bit for bit.
func TestFusedTimingWideGroupSplits(t *testing.T) {
	kinds := []string{"gshare", "gshare.fast"}
	var depths []int
	for d := 8; len(depths)*len(kinds) <= maxTimingLanes; d += 2 {
		depths = append(depths, d)
	}
	lanes := len(depths) * len(kinds)
	off := timingFusionTestOpts
	off.Fuse = FuseOff
	fusedPlan, soloPlan := newPlan(timingFusionTestOpts), newPlan(off)
	fused := timingFusionGrid(fusedPlan, depths, kinds, 1)
	solo := timingFusionGrid(soloPlan, depths, kinds, 1)

	tally := mustExecute(t, fusedPlan).Timing
	mustExecute(t, soloPlan)
	for i := range fused {
		if !reflect.DeepEqual(fused[i], solo[i]) {
			t.Errorf("cell %d diverges between the split group and FuseOff:\n got %+v\nwant %+v",
				i, fused[i], solo[i])
		}
	}
	wantPasses := (lanes + maxTimingLanes - 1) / maxTimingLanes
	if tally.Passes != wantPasses || tally.Lanes != lanes {
		t.Errorf("%d-lane group ran %d passes carrying %d lanes, want %d passes", lanes, tally.Passes, tally.Lanes, wantPasses)
	}
}

// TestFusedTimingGeometryGrouping pins the grouping contract at the plan
// level: timing cells that differ only in cache geometry land in separate
// fused groups (pipeline.RunMany would panic on a mixed group), while
// cells sharing a geometry fuse.
func TestFusedTimingGeometryGrouping(t *testing.T) {
	const budget = 16 << 10
	prof := workload.Profiles()[0]
	small := pipeline.DefaultConfig()
	small.L2.SizeBytes = 512 << 10
	plan := newPlan(timingFusionTestOpts)
	var a, b pipeline.Result
	plan.addTiming(pipeline.DefaultConfig(), "gshare", "", budget, func(*timingParts) predictor.Predictor {
		return mustPredictor("gshare", budget)
	}, prof, func(res pipeline.Result) { a = res })
	plan.addTiming(small, "gshare", "", budget, func(*timingParts) predictor.Predictor {
		return mustPredictor("gshare", budget)
	}, prof, func(res pipeline.Result) { b = res })

	if tally := mustExecute(t, plan).Timing; tally.Passes != 2 || tally.Lanes != 2 || tally.Fused != 2 {
		t.Fatalf("geometry-split grid tally = %+v; want 2 single-lane passes", tally)
	}
	if a.Insts == 0 || b.Insts == 0 {
		t.Fatal("a geometry group's sink was never filled")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("shrinking L2 did not change the timing result; geometry grouping is untestable")
	}
}

// TestFusedTimingMemoAccounting pins the plan's timing accounting under
// fused execution, mirroring TestFusedMemoAccounting: a cell declared
// twice in one plan collapses at plan time into one lane, simulates once
// and feeds both sinks.
func TestFusedTimingMemoAccounting(t *testing.T) {
	plan := newPlan(timingFusionTestOpts)
	first := timingFusionGrid(plan, []int{18}, []string{"bimode"}, 2)
	dup := timingFusionGrid(plan, []int{18}, []string{"bimode"}, 2)
	got := mustExecute(t, plan).Timing

	if !reflect.DeepEqual(first, dup) {
		t.Fatalf("duplicate sinks received different results:\n%+v\n%+v", first, dup)
	}
	if want := (FamilyTally{Cells: 2, Collapsed: 2, Passes: 2, Lanes: 2, Fused: 4}); got != want {
		t.Fatalf("tally after duplicated plan = %+v, want %+v", got, want)
	}
}

// TestFusedTimingStoreFlow pins the timing scheduler's Get/Put store flow:
// a cold fused run misses and writes once per distinct cell, a warm rerun
// (a second store over the same directory — a stand-in for a second
// process) serves every cell from disk and runs zero fused passes,
// and a -nofuse rerun reads the fused run's cells bit-identically.
func TestFusedTimingStoreFlow(t *testing.T) {
	depths := []int{22}
	kinds := []string{"gshare", "2bcgskew"}
	const nBench, nCells = 2, 4
	dir := t.TempDir()

	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := timingFusionTestOpts
	opts.Store = st1
	coldPlan := newPlan(opts)
	cold := timingFusionGrid(coldPlan, depths, kinds, nBench)
	mustExecute(t, coldPlan)
	if s := st1.Stats(); s.Misses != nCells || s.Writes != nCells || s.Hits != 0 {
		t.Fatalf("cold store traffic = %+v, want %d misses, %d writes", s, nCells, nCells)
	}

	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st2
	warmPlan := newPlan(opts)
	warm := timingFusionGrid(warmPlan, depths, kinds, nBench)
	tally := mustExecute(t, warmPlan).Timing
	if s := st2.Stats(); s.Hits != nCells || s.Misses != 0 || s.Invalidations != 0 {
		t.Fatalf("warm store traffic = %+v, want %d hits", s, nCells)
	}
	if tally.Passes != 0 || tally.Lanes != 0 || tally.Fused != 0 || tally.Stored != nCells {
		t.Fatalf("warm rerun tally = %+v; want no pass, all %d cells stored", tally, nCells)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("store-served cells diverge from the fused originals:\n%+v\n%+v", warm, cold)
	}

	st3, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st3
	opts.Fuse = FuseOff
	soloPlan := newPlan(opts)
	solo := timingFusionGrid(soloPlan, depths, kinds, nBench)
	mustExecute(t, soloPlan)
	if s := st3.Stats(); s.Hits != nCells {
		t.Fatalf("-nofuse rerun store traffic = %+v, want %d hits", s, nCells)
	}
	if !reflect.DeepEqual(solo, cold) {
		t.Fatalf("-nofuse cells diverge from the fused store's records:\n%+v\n%+v", solo, cold)
	}
}
