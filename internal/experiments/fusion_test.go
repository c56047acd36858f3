package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// fusionTestOpts uses an instruction budget unique to this file (the
// timingmemo_test.go convention) so its cells never collide with other
// tests' entries in the process-wide trace store or memos.
var fusionTestOpts = Options{Insts: 140_000, Warmup: 35_000}

// fusionGrid declares a kinds × budgets × benchmarks accuracy grid into
// plan and returns the slice the sinks fill, indexed in declaration order.
func fusionGrid(plan *cellPlan, kinds []string, budgets []int, nBench int) []funcsim.Result {
	profiles := workload.Profiles()[:nBench]
	out := make([]funcsim.Result, len(kinds)*len(budgets)*len(profiles))
	i := 0
	for _, kind := range kinds {
		for _, budget := range budgets {
			for _, prof := range profiles {
				slot := &out[i]
				i++
				plan.addAccuracy(kind, "", budget, func() predictor.Predictor {
					return mustPredictor(kind, budget)
				}, prof, func(res funcsim.Result) { *slot = res })
			}
		}
	}
	return out
}

// TestFusedEquivalence is the fused scheduler's correctness contract at
// the plan level: the same grid executed fused and in groups of one
// (FuseOff) must fill every sink with bit-identical Results. The kind mix covers all
// three lane shapes — batch-stepping (gshare), heavy scalar (perceptron),
// and cycle-aware (gshare.fast).
func TestFusedEquivalence(t *testing.T) {
	kinds := []string{"gshare", "perceptron", "gshare.fast"}
	budgets := []int{4 << 10, 32 << 10}
	const nBench = 3
	off := fusionTestOpts
	off.Fuse = FuseOff
	fusedPlan, soloPlan := newPlan(fusionTestOpts), newPlan(off)
	fused := fusionGrid(fusedPlan, kinds, budgets, nBench)
	solo := fusionGrid(soloPlan, kinds, budgets, nBench)

	fc := &cellCache[funcsim.Result]{}
	fusedPlan.executeWith(fc, &cellCache[pipeline.Result]{})
	soloPlan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})

	for i := range fused {
		if !reflect.DeepEqual(fused[i], solo[i]) {
			t.Errorf("cell %d diverges between fused and FuseOff execution:\n got %+v\nwant %+v",
				i, fused[i], solo[i])
		}
	}
	groups, lanes, fusedCells, soloCells := fc.fusionStats()
	wantLanes := int64(len(kinds) * len(budgets) * nBench)
	if groups != nBench || lanes != wantLanes || fusedCells != wantLanes || soloCells != 0 {
		t.Errorf("fused counters = %d groups, %d lanes, %d fused, %d solo; want %d, %d, %d, 0",
			groups, lanes, fusedCells, soloCells, nBench, wantLanes, wantLanes)
	}
}

// TestFusedMemoAccounting pins the memo's accounting under fused
// publishing: a cell declared twice in one plan (the Figure 5 / Figure 6
// overlap) simulates once and the duplicate counts as a memory hit, and a
// later plan revisiting the cells resolves them solo — zero fused passes —
// with one hit per lookup, exactly as groups of one would count.
func TestFusedMemoAccounting(t *testing.T) {
	memo := &cellCache[funcsim.Result]{}
	plan := newPlan(fusionTestOpts)
	first := fusionGrid(plan, []string{"bimode"}, []int{8 << 10}, 2)
	dup := fusionGrid(plan, []string{"bimode"}, []int{8 << 10}, 2)
	plan.executeWith(memo, &cellCache[pipeline.Result]{})

	if cells, hits := memo.stats(); cells != 2 || hits != 2 {
		t.Fatalf("after duplicated plan: %d cells, %d hits; want 2 distinct cells, 2 duplicate hits", cells, hits)
	}
	if !reflect.DeepEqual(first, dup) {
		t.Fatalf("duplicate sinks received different results:\n%+v\n%+v", first, dup)
	}
	if groups, lanes, fused, solo := memo.fusionStats(); groups != 2 || lanes != 2 || fused != 4 || solo != 0 {
		t.Fatalf("counters after duplicated plan = %d/%d/%d/%d, want 2 groups, 2 lanes, 4 fused, 0 solo",
			groups, lanes, fused, solo)
	}

	// A second plan over the same memo finds every entry pre-existing.
	again := newPlan(fusionTestOpts)
	revisit := fusionGrid(again, []string{"bimode"}, []int{8 << 10}, 2)
	again.executeWith(memo, &cellCache[pipeline.Result]{})
	if cells, hits := memo.stats(); cells != 2 || hits != 4 {
		t.Fatalf("after revisit: %d cells, %d hits; want still 2 cells, 4 hits", cells, hits)
	}
	if groups, _, _, solo := memo.fusionStats(); groups != 2 || solo != 2 {
		t.Fatalf("revisit ran %d groups total (%d solo cells), want no new passes (2 groups, 2 solo)", groups, solo)
	}
	if !reflect.DeepEqual(revisit, first) {
		t.Fatalf("revisited cells diverge from the fused originals:\n%+v\n%+v", revisit, first)
	}
}

// TestFusedStoreFlow pins the scheduler's Get/Put store flow: a cold fused
// run misses and writes once per distinct cell, a warm rerun (fresh cache,
// second store over the same directory — a stand-in for a second process)
// serves every cell from disk and runs zero fused passes, and a -nofuse
// rerun reads the fused run's cells bit-identically.
func TestFusedStoreFlow(t *testing.T) {
	kinds := []string{"gshare", "2bcgskew"}
	budgets := []int{16 << 10}
	const nBench, nCells = 2, 4
	dir := t.TempDir()

	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := fusionTestOpts
	opts.Store = st1
	coldPlan := newPlan(opts)
	cold := fusionGrid(coldPlan, kinds, budgets, nBench)
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
	warm := fusionGrid(warmPlan, kinds, budgets, nBench)
	fcWarm := &cellCache[funcsim.Result]{}
	warmPlan.executeWith(fcWarm, &cellCache[pipeline.Result]{})
	if s := st2.Stats(); s.Hits != nCells || s.Misses != 0 || s.Invalidations != 0 {
		t.Fatalf("warm store traffic = %+v, want %d hits", s, nCells)
	}
	if groups, lanes, fused, solo := fcWarm.fusionStats(); groups != 0 || lanes != 0 || fused != 0 || solo != nCells {
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
	solo := fusionGrid(soloPlan, kinds, budgets, nBench)
	soloPlan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})
	if s := st3.Stats(); s.Hits != nCells {
		t.Fatalf("-nofuse rerun store traffic = %+v, want %d hits", s, nCells)
	}
	if !reflect.DeepEqual(solo, cold) {
		t.Fatalf("-nofuse cells diverge from the fused store's records:\n%+v\n%+v", solo, cold)
	}
}
