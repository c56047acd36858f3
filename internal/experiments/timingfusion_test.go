package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// timingFusionTestOpts uses an instruction budget unique to this file (the
// fusion_test.go convention) so its cells never collide with other tests'
// entries in the process-wide trace store or memos.
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
				plan.addTiming(cfg, kind, org, budget, func() predictor.Predictor {
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

	tfc := &cellCache[pipeline.Result]{}
	fusedPlan.executeWith(&cellCache[funcsim.Result]{}, tfc)
	soloPlan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})

	for i := range fused {
		if !reflect.DeepEqual(fused[i], solo[i]) {
			t.Errorf("cell %d diverges between fused and FuseOff execution:\n got %+v\nwant %+v",
				i, fused[i], solo[i])
		}
	}
	groups, lanes, fusedCells, soloCells := tfc.fusionStats()
	wantLanes := int64(len(depths) * len(kinds) * nBench)
	if groups != nBench || lanes != wantLanes || fusedCells != wantLanes || soloCells != 0 {
		t.Errorf("timing fused counters = %d groups, %d lanes, %d fused, %d solo; want %d, %d, %d, 0",
			groups, lanes, fusedCells, soloCells, nBench, wantLanes, wantLanes)
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
	plan.addTiming(pipeline.DefaultConfig(), "gshare", "", budget, func() predictor.Predictor {
		return mustPredictor("gshare", budget)
	}, prof, func(res pipeline.Result) { a = res })
	plan.addTiming(small, "gshare", "", budget, func() predictor.Predictor {
		return mustPredictor("gshare", budget)
	}, prof, func(res pipeline.Result) { b = res })

	tfc := &cellCache[pipeline.Result]{}
	plan.executeWith(&cellCache[funcsim.Result]{}, tfc)
	if groups, lanes, fusedCells, _ := tfc.fusionStats(); groups != 2 || lanes != 2 || fusedCells != 2 {
		t.Fatalf("geometry-split grid ran %d groups (%d lanes, %d fused cells); want 2 single-lane groups",
			groups, lanes, fusedCells)
	}
	if a.Insts == 0 || b.Insts == 0 {
		t.Fatal("a geometry group's sink was never filled")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("shrinking L2 did not change the timing result; geometry grouping is untestable")
	}
}

// TestFusedTimingMemoAccounting pins the timing memo's accounting under
// fused publishing, mirroring TestFusedMemoAccounting: a cell declared
// twice in one plan simulates once and the duplicate counts as a memory
// hit, and a later plan revisiting the cells resolves them solo — zero
// fused passes — with one hit per lookup, exactly as groups of one would
// count.
func TestFusedTimingMemoAccounting(t *testing.T) {
	tmemo := &cellCache[pipeline.Result]{}
	plan := newPlan(timingFusionTestOpts)
	first := timingFusionGrid(plan, []int{18}, []string{"bimode"}, 2)
	dup := timingFusionGrid(plan, []int{18}, []string{"bimode"}, 2)
	plan.executeWith(&cellCache[funcsim.Result]{}, tmemo)

	if cells, hits := tmemo.stats(); cells != 2 || hits != 2 {
		t.Fatalf("after duplicated plan: %d cells, %d hits; want 2 distinct cells, 2 duplicate hits", cells, hits)
	}
	if !reflect.DeepEqual(first, dup) {
		t.Fatalf("duplicate sinks received different results:\n%+v\n%+v", first, dup)
	}
	if groups, lanes, fused, solo := tmemo.fusionStats(); groups != 2 || lanes != 2 || fused != 4 || solo != 0 {
		t.Fatalf("counters after duplicated plan = %d/%d/%d/%d, want 2 groups, 2 lanes, 4 fused, 0 solo",
			groups, lanes, fused, solo)
	}

	// A second plan over the same memo finds every entry pre-existing.
	again := newPlan(timingFusionTestOpts)
	revisit := timingFusionGrid(again, []int{18}, []string{"bimode"}, 2)
	again.executeWith(&cellCache[funcsim.Result]{}, tmemo)
	if cells, hits := tmemo.stats(); cells != 2 || hits != 4 {
		t.Fatalf("after revisit: %d cells, %d hits; want still 2 cells, 4 hits", cells, hits)
	}
	if groups, _, _, solo := tmemo.fusionStats(); groups != 2 || solo != 2 {
		t.Fatalf("revisit ran %d groups total (%d solo cells), want no new passes (2 groups, 2 solo)", groups, solo)
	}
	if !reflect.DeepEqual(revisit, first) {
		t.Fatalf("revisited cells diverge from the fused originals:\n%+v\n%+v", revisit, first)
	}
}

// TestFusedTimingStoreFlow pins the timing scheduler's Get/Put store flow:
// a cold fused run misses and writes once per distinct cell, a warm rerun
// (fresh cache, second store over the same directory — a stand-in for a
// second process) serves every cell from disk and runs zero fused passes,
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
	coldPlan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})
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
	tfcWarm := &cellCache[pipeline.Result]{}
	warmPlan.executeWith(&cellCache[funcsim.Result]{}, tfcWarm)
	if s := st2.Stats(); s.Hits != nCells || s.Misses != 0 || s.Invalidations != 0 {
		t.Fatalf("warm store traffic = %+v, want %d hits", s, nCells)
	}
	if groups, lanes, fused, solo := tfcWarm.fusionStats(); groups != 0 || lanes != 0 || fused != 0 || solo != nCells {
		t.Fatalf("warm rerun ran %d fused passes (%d lanes, %d fused cells, %d solo); want none, all %d solo",
			groups, lanes, fused, solo, nCells)
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
	soloPlan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})
	if s := st3.Stats(); s.Hits != nCells {
		t.Fatalf("-nofuse rerun store traffic = %+v, want %d hits", s, nCells)
	}
	if !reflect.DeepEqual(solo, cold) {
		t.Fatalf("-nofuse cells diverge from the fused store's records:\n%+v\n%+v", solo, cold)
	}
}
