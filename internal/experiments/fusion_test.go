package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// fusionTestOpts is the measurement window of this file's grids.
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

	tally := fusedPlan.execute().Accuracy
	soloPlan.execute()

	for i := range fused {
		if !reflect.DeepEqual(fused[i], solo[i]) {
			t.Errorf("cell %d diverges between fused and FuseOff execution:\n got %+v\nwant %+v",
				i, fused[i], solo[i])
		}
	}
	wantLanes := len(kinds) * len(budgets) * nBench
	if tally.Passes != nBench || tally.Lanes != wantLanes || tally.Fused != wantLanes || tally.Stored != 0 {
		t.Errorf("fused tally = %+v; want %d passes, %d lanes, %d fused, 0 stored", tally, nBench, wantLanes, wantLanes)
	}
}

// TestFusedMemoAccounting pins the plan's accounting under fused
// execution: a cell declared twice in one plan (the Figure 5 / Figure 6
// overlap) collapses at plan time into one lane, simulates once and feeds
// both sinks.
func TestFusedMemoAccounting(t *testing.T) {
	plan := newPlan(fusionTestOpts)
	first := fusionGrid(plan, []string{"bimode"}, []int{8 << 10}, 2)
	dup := fusionGrid(plan, []string{"bimode"}, []int{8 << 10}, 2)
	got := plan.execute().Accuracy

	if !reflect.DeepEqual(first, dup) {
		t.Fatalf("duplicate sinks received different results:\n%+v\n%+v", first, dup)
	}
	if want := (FamilyTally{Cells: 2, Collapsed: 2, Passes: 2, Lanes: 2, Fused: 4}); got != want {
		t.Fatalf("tally after duplicated plan = %+v, want %+v", got, want)
	}
}

// TestFusedStoreFlow pins the scheduler's Get/Put store flow: a cold fused
// run misses and writes once per distinct cell, a warm rerun (a second
// store over the same directory — a stand-in for a second process)
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
	coldPlan.execute()
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
	tally := warmPlan.execute().Accuracy
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
	solo := fusionGrid(soloPlan, kinds, budgets, nBench)
	soloPlan.execute()
	if s := st3.Stats(); s.Hits != nCells {
		t.Fatalf("-nofuse rerun store traffic = %+v, want %d hits", s, nCells)
	}
	if !reflect.DeepEqual(solo, cold) {
		t.Fatalf("-nofuse cells diverge from the fused store's records:\n%+v\n%+v", solo, cold)
	}
}
