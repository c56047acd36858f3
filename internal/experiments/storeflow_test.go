package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// storeTestOpts uses an instruction budget unique to this file so its
// cells never collide with other tests' entries in the process-wide trace
// store or caches (the convention timingmemo_test.go established).
var storeTestOpts = Options{Insts: 130_000, Warmup: 30_000}

// timingCell resolves one explicitly constructed timing cell as a
// one-spec plan through fresh caches — a stand-in for a fresh process.
func timingCell(cfg pipeline.Config, kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, opts Options) pipeline.Result {
	plan := newPlan(opts)
	var res pipeline.Result
	plan.addTiming(cfg, kind, org, budget, build, prof, func(r pipeline.Result) { res = r })
	plan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})
	return res
}

// accuracyCell is timingCell for one accuracy cell.
func accuracyCell(kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, opts Options) funcsim.Result {
	plan := newPlan(opts)
	var res funcsim.Result
	plan.addAccuracy(kind, org, budget, build, prof, func(r funcsim.Result) { res = r })
	plan.executeWith(&cellCache[funcsim.Result]{}, &cellCache[pipeline.Result]{})
	return res
}

// TestTimingStoreEquivalence is the acceptance criterion's equivalence
// suite for the timing family: a cell computed through a cold store, the
// same cell served warm by a second cache (a stand-in for a second
// process), and a cell computed with no store at all must be bit-identical
// pipeline Results.
func TestTimingStoreEquivalence(t *testing.T) {
	prof := workload.Profiles()[0]
	const budget = 32 << 10

	fresh := NewTimingMemo().Cell("perceptron", budget, Realistic, prof, storeTestOpts)

	dir := t.TempDir()
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st1
	cold := NewTimingMemo().Cell("perceptron", budget, Realistic, prof, opts)

	// A fresh memo and a second store over the same directory stand in
	// for a second process, so the warm cell must come off disk.
	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st2
	warm := NewTimingMemo().Cell("perceptron", budget, Realistic, prof, opts)

	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cold store compute != storeless compute:\n%+v\n%+v", cold, fresh)
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatalf("store-served cell != fresh simulation:\n%+v\n%+v", warm, fresh)
	}
	if s := st1.Stats(); s.Misses != 1 || s.Writes != 1 || s.Hits != 0 {
		t.Fatalf("cold store traffic = %+v, want 1 miss, 1 write", s)
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Invalidations != 0 {
		t.Fatalf("warm store traffic = %+v, want 1 hit", s)
	}
}

// TestTimingStoreWarmDoesNotSimulate proves a warm cell never constructs a
// predictor: the simulation is skipped entirely, not re-run and compared.
func TestTimingStoreWarmDoesNotSimulate(t *testing.T) {
	prof := workload.Profiles()[1]
	const budget = 32 << 10
	dir := t.TempDir()
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st1
	var builds atomic.Int64
	build := func() predictor.Predictor {
		builds.Add(1)
		return mustPredictor("gshare.fast", budget)
	}
	cold := timingCell(pipeline.DefaultConfig(), "gshare.fast", "ideal", budget, build, prof, opts)
	if builds.Load() != 1 {
		t.Fatalf("cold cell built %d predictors, want 1", builds.Load())
	}
	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st2
	warm := timingCell(pipeline.DefaultConfig(), "gshare.fast", "ideal", budget, build, prof, opts)
	if builds.Load() != 1 {
		t.Fatalf("warm cell re-simulated (%d builds)", builds.Load())
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm != cold:\n%+v\n%+v", warm, cold)
	}
}

// TestAccuracyStoreEquivalence is the accuracy-family twin: store-served
// functional results are bit-identical to fresh simulation, and a warm
// cell never simulates.
func TestAccuracyStoreEquivalence(t *testing.T) {
	prof := workload.Profiles()[0]
	const budget = 32 << 10
	var computes atomic.Int64
	build := func() predictor.Predictor {
		computes.Add(1)
		return mustPredictor("bimode", budget)
	}

	fresh := accuracyCell("bimode", "", budget, build, prof, storeTestOpts)

	dir := t.TempDir()
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st1
	cold := accuracyCell("bimode", "", budget, build, prof, opts)
	if computes.Load() != 2 {
		t.Fatalf("cold cell computed %d times total, want 2 (storeless + cold)", computes.Load())
	}
	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st2
	warm := accuracyCell("bimode", "", budget, build, prof, opts)
	if computes.Load() != 2 {
		t.Fatalf("warm cell re-simulated (%d computes)", computes.Load())
	}
	if !reflect.DeepEqual(cold, fresh) || !reflect.DeepEqual(warm, fresh) {
		t.Fatalf("store round-trip drifted:\nfresh %+v\ncold  %+v\nwarm  %+v", fresh, cold, warm)
	}
	if s := st1.Stats(); s.Misses != 1 || s.Writes != 1 {
		t.Fatalf("cold store traffic = %+v, want 1 miss, 1 write", s)
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm store traffic = %+v, want 1 hit", s)
	}
}

// TestStoreKeySeparatesFamilies proves an accuracy cell and a timing cell
// with the same (kind, budget, bench, window) never collide in the store:
// the family and machine components keep their content addresses apart.
func TestStoreKeySeparatesFamilies(t *testing.T) {
	prof := workload.Profiles()[0]
	const budget = 32 << 10
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st
	NewTimingMemo().Cell("gshare.fast", budget, Ideal, prof, opts)
	accuracyCell("gshare.fast", "ideal", budget, func() predictor.Predictor {
		return mustPredictor("gshare.fast", budget)
	}, prof, opts)
	if s := st.Stats(); s.Misses != 2 || s.Writes != 2 || s.Hits != 0 {
		t.Fatalf("families collided in the store: %+v", s)
	}
}

// TestMultiBranchWarmStore pins the block-prediction cells to the common
// cell path: after a cold MultiBranch run fills a store, a second process
// (fresh accuracy cache, second store over the same directory) serves
// every cell from disk, fused and FuseOff alike, and renders the same
// table byte for byte.
func TestMultiBranchWarmStore(t *testing.T) {
	saved := accuracyMemo
	t.Cleanup(func() { accuracyMemo = saved })
	dir := t.TempDir()
	openStore := func() *resultstore.Store {
		st, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	nCells := int64(4 * len(workload.Profiles())) // block widths 1, 2, 4, 8
	opts := Options{Insts: 60_000, Warmup: 15_000, Store: openStore()}

	accuracyMemo = &cellCache[funcsim.Result]{}
	cold := MultiBranch(opts).Render()
	if s := opts.Store.Stats(); s.Misses != nCells || s.Writes != nCells || s.Hits != 0 {
		t.Fatalf("cold store traffic = %+v, want %d misses, %d writes", s, nCells, nCells)
	}
	for _, fuse := range []FuseMode{FuseAuto, FuseOff} {
		accuracyMemo = &cellCache[funcsim.Result]{}
		opts.Store, opts.Fuse = openStore(), fuse
		warm := MultiBranch(opts).Render()
		if s := opts.Store.Stats(); s.Hits != nCells || s.Misses != 0 || s.Invalidations != 0 || s.Writes != 0 {
			t.Fatalf("fuse=%d: warm store traffic = %+v, want %d hits and nothing else", fuse, s, nCells)
		}
		if warm != cold {
			t.Fatalf("fuse=%d: warm MultiBranch render diverges from cold:\n%s\nvs\n%s", fuse, warm, cold)
		}
	}
}
