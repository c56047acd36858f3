package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// storeTestOpts is the measurement window of this file's cells.
var storeTestOpts = Options{Insts: 130_000, Warmup: 30_000}

// timingCell resolves one explicitly constructed timing cell as a
// one-spec plan.
func timingCell(cfg pipeline.Config, kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, opts Options) pipeline.Result {
	plan := newPlan(opts)
	var res pipeline.Result
	plan.addTiming(cfg, kind, org, budget, func(*timingParts) predictor.Predictor { return build() }, prof,
		func(r pipeline.Result) { res = r })
	plan.execute()
	return res
}

// accuracyCell is timingCell for one accuracy cell.
func accuracyCell(kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, opts Options) funcsim.Result {
	plan := newPlan(opts)
	var res funcsim.Result
	plan.addAccuracy(kind, org, budget, build, prof, func(r funcsim.Result) { res = r })
	plan.execute()
	return res
}

// TestTimingStoreEquivalence is the acceptance criterion's equivalence
// suite for the timing family: a cell computed through a cold store, the
// same cell served warm by a second store over the same directory (a
// stand-in for a second process), and a cell computed with no store at all must be bit-identical
// pipeline Results.
func TestTimingStoreEquivalence(t *testing.T) {
	prof := workload.Profiles()[0]
	const budget = 32 << 10

	fresh := TimingCell("perceptron", budget, Realistic, prof, storeTestOpts)

	dir := t.TempDir()
	st1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st1
	cold := TimingCell("perceptron", budget, Realistic, prof, opts)

	// A second store over the same directory stands in for a second
	// process, so the warm cell must come off disk.
	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st2
	warm := TimingCell("perceptron", budget, Realistic, prof, opts)

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
	TimingCell("gshare.fast", budget, Ideal, prof, opts)
	accuracyCell("gshare.fast", "ideal", budget, func() predictor.Predictor {
		return mustPredictor("gshare.fast", budget)
	}, prof, opts)
	if s := st.Stats(); s.Misses != 2 || s.Writes != 2 || s.Hits != 0 {
		t.Fatalf("families collided in the store: %+v", s)
	}
}

// TestMultiBranchWarmStore pins the block-prediction cells to the common
// cell path: after a cold MultiBranch run fills a store, a second process
// (a second store over the same directory) serves
// every cell from disk, fused and FuseOff alike, and renders the same
// table byte for byte.
func TestMultiBranchWarmStore(t *testing.T) {
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

	cold := runOne(t, "multibranch", opts).Render()
	if s := opts.Store.Stats(); s.Misses != nCells || s.Writes != nCells || s.Hits != 0 {
		t.Fatalf("cold store traffic = %+v, want %d misses, %d writes", s, nCells, nCells)
	}
	for _, fuse := range []FuseMode{FuseAuto, FuseOff} {
		opts.Store, opts.Fuse = openStore(), fuse
		warm := runOne(t, "multibranch", opts).Render()
		if s := opts.Store.Stats(); s.Hits != nCells || s.Misses != 0 || s.Invalidations != 0 || s.Writes != 0 {
			t.Fatalf("fuse=%d: warm store traffic = %+v, want %d hits and nothing else", fuse, s, nCells)
		}
		if warm != cold {
			t.Fatalf("fuse=%d: warm MultiBranch render diverges from cold:\n%s\nvs\n%s", fuse, warm, cold)
		}
	}
}

// mixedPlan declares a small grid of every cell shape — plain and block
// accuracy cells, ideal and overriding timing cells — on the first two
// benchmarks, and returns the plan and the Results its sinks fill, in
// declaration order.
func mixedPlan(opts Options) (*cellPlan, []any) {
	plan := newPlan(opts)
	const budget = 16 << 10
	profs := workload.Profiles()[:2]
	out := make([]any, 4*len(profs))
	for pi, prof := range profs {
		i := 4 * pi
		plan.addAccuracy("bimode", "", budget, func() predictor.Predictor {
			return mustPredictor("bimode", budget)
		}, prof, func(r funcsim.Result) { out[i] = r })
		plan.addBlocks("gshare.fast", budget, 2, func() predictor.Predictor {
			return NewGShareFast(budget)
		}, prof, func(r funcsim.Result) { out[i+1] = r })
		plan.addCell("perceptron", budget, Realistic, prof, func(r pipeline.Result) { out[i+2] = r })
		plan.addCell("gshare.fast", budget, Ideal, prof, func(r pipeline.Result) { out[i+3] = r })
	}
	return plan, out
}

// TestWarmRunGeneratesNothing proves a warm run reads its cells and
// nothing else: after a cold run fills a store, a second run over the
// same plan serves every cell from disk and runs
// no pass. A pass is the only place a stream is generated, so the warm run
// generates and classifies no stream.
func TestWarmRunGeneratesNothing(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *resultstore.Store {
		st, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	opts := Options{Insts: 70_000, Warmup: 20_000}

	opts.Store = openStore()
	plan, cold := mixedPlan(opts)
	plan.execute()
	n := int64(len(cold))
	if s := opts.Store.Stats(); s.Misses != n || s.Writes != n {
		t.Fatalf("cold store traffic = %+v, want %d misses and writes", s, n)
	}

	opts.Store = openStore()
	plan, warm := mixedPlan(opts)
	tally := plan.execute()
	if s := opts.Store.Stats(); s.Hits != n || s.Misses != 0 || s.Invalidations != 0 || s.Writes != 0 {
		t.Fatalf("warm store traffic = %+v, want %d hits and nothing else", s, n)
	}
	if tally.Accuracy.Passes != 0 || tally.Timing.Passes != 0 {
		t.Fatalf("warm run ran %d accuracy and %d timing passes, want none", tally.Accuracy.Passes, tally.Timing.Passes)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm Results differ from cold:\n%+v\n%+v", warm, cold)
	}
}

// TestStoreKeyNamesCode proves the store serves a cell only to the code
// that computed it: every key a plan fills carries cellCode, and the same
// key with any other Code misses the filled store.
func TestStoreKeyNamesCode(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := storeTestOpts
	opts.Store = st
	plan, _ := mixedPlan(opts)
	plan.execute()

	var keys []resultstore.Key
	for _, s := range plan.acc {
		keys = append(keys, s.key)
	}
	for _, s := range plan.tim {
		keys = append(keys, s.key)
	}
	if st, err = resultstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Code != cellCode {
			t.Fatalf("%s: Code %q, want cellCode %q", k.Canonical(), k.Code, cellCode)
		}
		if _, ok := st.Get(k); !ok {
			t.Fatalf("%s: not served from the store it filled", k.Canonical())
		}
		k.Code = "f00d " + runtime.Version()
		if _, ok := st.Get(k); ok {
			t.Fatalf("%s: served to a key naming other code", k.Canonical())
		}
	}
	if s := st.Stats(); s.Hits != int64(len(keys)) || s.Misses != int64(len(keys)) {
		t.Fatalf("store traffic = %+v, want %d hits and %d misses", s, len(keys), len(keys))
	}
}

// TestConcurrentPlansShareStore pins the contract concurrent plans over
// one store keep: they may compute a cell twice, but never leave a torn
// one. Two plans execute the same cold experiments at once against one
// store, and both render the bytes of a serial run with no store; a third
// plan, over a second store on the same directory, is then served whole
// from disk and runs no pass. Run under -race by check.sh.
func TestConcurrentPlansShareStore(t *testing.T) {
	ids := []string{"figure6", "figure8"}
	opts := Options{Insts: 10_000, Warmup: 2_500, Parallel: 2}
	render := func(opts Options) (string, Tally) {
		rp, err := Plan(ids, opts)
		if err != nil {
			t.Error(err)
			return "", Tally{}
		}
		rp.Execute()
		var b strings.Builder
		for _, out := range rp.Render() {
			b.WriteString(out.Render())
		}
		return b.String(), rp.Tally()
	}
	serial := opts
	serial.Parallel = 1
	want, tally := render(serial)
	cells := int64(tally.Accuracy.Cells + tally.Timing.Cells)

	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = render(opts)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent plan %d renders differently from the serial storeless run:\n%s\nvs\n%s", i, g, want)
		}
	}

	if opts.Store, err = resultstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	warm, tally := render(opts)
	if warm != want {
		t.Errorf("plan served by the shared store renders differently:\n%s\nvs\n%s", warm, want)
	}
	if s := opts.Store.Stats(); s.Hits != cells || s.Misses != 0 || s.Invalidations != 0 || s.Writes != 0 {
		t.Errorf("store traffic after concurrent fills = %+v, want %d hits and nothing else", s, cells)
	}
	if tally.Accuracy.Passes != 0 || tally.Timing.Passes != 0 {
		t.Errorf("plan over the filled store ran %d accuracy and %d timing passes, want none",
			tally.Accuracy.Passes, tally.Timing.Passes)
	}
}
