package experiments

import (
	"reflect"
	"sync"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// stressOpts uses an instruction budget no other test shares (the same
// convention as memoTestOpts), so the memo cells and process-wide sidecar
// store entries hammered here belong to this test alone.
var stressOpts = Options{Insts: 117_000, Warmup: 30_000, Parallel: 1}

// TestTimingMemoConcurrentStress is the runtime twin of the lockguard
// analyzer: it hammers TimingMemo.Cell and the process-wide sidecar store
// from parallel goroutines under -race and cross-checks every result
// against a fresh serial recompute (fresh predictor, private replay, live
// caches, no memo). A data race on the guarded maps shows up here as a
// race report or a diverging Result; the memo accounting at the end pins
// that every duplicate lookup really was served from memory.
func TestTimingMemoConcurrentStress(t *testing.T) {
	const budget = 64 << 10
	var profs []workload.Profile
	for _, name := range []string{"gzip", "twolf"} {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		profs = append(profs, prof)
	}

	type cellSpec struct {
		kind string
		mode TimingMode
		prof workload.Profile
	}
	var specs []cellSpec
	for _, prof := range profs {
		specs = append(specs,
			cellSpec{"perceptron", Ideal, prof},
			cellSpec{"perceptron", Realistic, prof},
			cellSpec{"gshare.fast", Realistic, prof},
		)
	}

	// Serial references, recomputed from scratch with no memo and no
	// sidecar: the concurrent lookups below must match these exactly.
	refs := make([]pipeline.Result, len(specs))
	for i, sp := range specs {
		rec := workload.Record(sp.prof, stressOpts.Insts)
		sim := pipeline.New(pipeline.DefaultConfig(), buildTimed(sp.kind, budget, sp.mode))
		refs[i] = sim.Run(rec.Replay(), stressOpts.Insts, stressOpts.Warmup)
	}

	// Sidecar references: the memoized sidecar must be pointer-stable
	// across goroutines and column-identical to a freshly built one.
	cfg := pipeline.DefaultConfig()
	wantSides := make([]*pipeline.MemSidecar, len(profs))
	for i, prof := range profs {
		wantSides[i] = sidecar(prof, stressOpts, cfg)
		fresh := pipeline.BuildMemSidecar(workload.Record(prof, stressOpts.Insts), pipeline.MemGeometryOf(cfg))
		if !reflect.DeepEqual(wantSides[i], fresh) {
			t.Fatalf("memoized sidecar for %s diverges from a fresh build", prof.Name)
		}
	}

	m := NewTimingMemo()
	const goroutines = 8
	const iters = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				// Each goroutine walks the cells at a different phase so
				// first-computes and memo hits interleave across the grid.
				for j := range specs {
					i := (j + g) % len(specs)
					sp := specs[i]
					got := m.Cell(sp.kind, budget, sp.mode, sp.prof, stressOpts)
					if !reflect.DeepEqual(got, refs[i]) {
						t.Errorf("goroutine %d: %s/%v/%s diverges from serial recompute:\n got %+v\nwant %+v",
							g, sp.kind, sp.mode, sp.prof.Name, got, refs[i])
					}
				}
				for i, prof := range profs {
					if side := sidecar(prof, stressOpts, cfg); side != wantSides[i] {
						t.Errorf("goroutine %d: sidecar store returned a distinct sidecar for %s", g, prof.Name)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every spec is a distinct key (kind and bench differ; gshare.fast's
	// mode collapse does not merge across kinds), so the memo must hold
	// exactly len(specs) cells and have served every other lookup from
	// memory.
	m.mu.Lock()
	cells, hits := len(m.entries), m.hits
	m.mu.Unlock()
	if cells != len(specs) {
		t.Errorf("memo holds %d cells, want %d", cells, len(specs))
	}
	if want := int64(goroutines*iters*len(specs) - len(specs)); hits != want {
		t.Errorf("memo served %d hits, want %d", hits, want)
	}
}

// TestCellCacheColdCoalesce is the singleflight contract, held by the cell
// cache's once-published entries: goroutines resolving one cold cell
// through Cell at the same moment run exactly one simulation and one store
// write, and all share its Result. Run under -race by check.sh.
func TestCellCacheColdCoalesce(t *testing.T) {
	prof := workload.Profiles()[2]
	const budget = 16 << 10
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := stressOpts
	opts.Store = st
	m := NewTimingMemo()
	const callers = 16
	got := make([]pipeline.Result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = m.Cell("perceptron", budget, Realistic, prof, opts)
		}()
	}
	close(start)
	wg.Wait()

	if groups, lanes, _, _ := m.fusionStats(); groups != 1 || lanes != 1 {
		t.Fatalf("cold cell simulated in %d passes carrying %d lanes, want exactly 1 simulation", groups, lanes)
	}
	if s := st.Stats(); s.Misses != 1 || s.Writes != 1 || s.Hits != 0 {
		t.Fatalf("store traffic = %+v, want exactly 1 miss + 1 write", s)
	}
	if cells, hits := m.stats(); cells != 1 || hits != callers-1 {
		t.Fatalf("cache holds %d cells with %d hits, want 1 cell, %d hits", cells, hits, callers-1)
	}
	if got[0].Insts == 0 {
		t.Fatal("coalesced cell returned an empty Result")
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("caller %d got %+v, want %+v", i, got[i], got[0])
		}
	}
}
