package funcsim

import (
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// opaqueSrc hides every protocol but Source, so Run and RunBlocks read it
// through trace.FilterBranches instead of a branch index.
type opaqueSrc struct{ src trace.Source }

func (o opaqueSrc) Next(inst *trace.Inst) bool { return o.src.Next(inst) }
func (o opaqueSrc) Name() string               { return o.src.Name() }

// opaqueClassified additionally keeps the branch classifier visible, so a
// filtered stream still collects PerClass rates.
type opaqueClassified struct {
	opaqueSrc
	c BranchClassifier
}

func (o opaqueClassified) BranchClassName(pc uint64) (string, bool) {
	return o.c.BranchClassName(pc)
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// TestFastPathEquivalenceRun is Run's correctness contract: the engine
// must reproduce the instruction-at-a-time reference bit for bit — across
// benchmarks, for a plain predictor and for a cycle-aware one (whose fetch
// clock the engine reconstructs from InstIndex), from a replayed
// recording's branch index, a filtered plain Source and a live generator,
// whether the run ends at the instruction budget or at the end of the
// stream.
func TestFastPathEquivalenceRun(t *testing.T) {
	predictors := []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"gshare-16KB", func() predictor.Predictor { return predictor.NewGShareFromBudget(16 << 10) }},
		// gshare.fast is CycleAware: it consumes the reconstructed clock.
		{"gshare.fast-64KB", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3})
		}},
	}
	cases := []struct {
		bench    string
		recorded int64 // stream length materialized for the replay sources
	}{
		// Recording longer than MaxInsts: the run stops at the budget.
		{"gzip", 200_000},
		{"mcf", 200_000},
		// Recording shorter than MaxInsts: the run stops at stream end.
		{"twolf", 80_000},
	}
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, FetchWidth: 3}
	for _, tc := range cases {
		prof := mustProfile(t, tc.bench)
		rec := workload.Record(prof, tc.recorded)
		for _, pd := range predictors {
			t.Run(tc.bench+"/"+pd.name, func(t *testing.T) {
				want := refRun(pd.mk(), rec.Replay(), opts)
				for name, src := range map[string]trace.Source{
					"replay-index":    rec.Replay(),
					"replay-filtered": opaqueSrc{rec.Replay()},
					"live-filtered":   opaqueSrc{workload.New(prof)},
				} {
					got := Run(pd.mk(), src, opts)
					if tc.recorded < opts.MaxInsts && name == "live-filtered" {
						// The live stream does not end at the
						// recording's boundary; only the replayed
						// sources share the short-stream result.
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s diverges from the reference:\n got %+v\nwant %+v", name, got, want)
					}
				}
				// The live generator's own branch protocol must match the
				// reference over the live stream exactly, stream boundary
				// or not.
				liveWant := refRun(pd.mk(), workload.New(prof), opts)
				liveGot := Run(pd.mk(), workload.New(prof), opts)
				if !reflect.DeepEqual(liveGot, liveWant) {
					t.Errorf("live generator diverges:\n got %+v\nwant %+v", liveGot, liveWant)
				}
			})
		}
	}
}

// TestFastPathEquivalencePerClass pins the per-class diagnostic rates
// against the reference, including the class map contents, over a branch
// index and over a filtered stream.
func TestFastPathEquivalencePerClass(t *testing.T) {
	prof := mustProfile(t, "gzip")
	rec := workload.Record(prof, 200_000)
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, PerClass: true}
	want := refRun(predictor.NewGShareFromBudget(16<<10), workload.Classify(rec.Replay(), prof), opts)
	if len(want.ClassRates) == 0 {
		t.Fatal("reference collected no class rates")
	}
	indexed := workload.Classify(rec.Replay(), prof)
	for name, src := range map[string]trace.Source{
		"index":    indexed,
		"filtered": opaqueClassified{opaqueSrc{rec.Replay()}, indexed.(BranchClassifier)},
	} {
		got := Run(predictor.NewGShareFromBudget(16<<10), src, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PerClass run diverges:\n got %+v\nwant %+v", name, got, want)
		}
		for class, w := range want.ClassRates {
			g := got.ClassRates[class]
			if g == nil || *g != *w {
				t.Errorf("%s: class %q: engine %+v, reference %+v", name, class, g, w)
			}
		}
	}
}

// TestFastPathEquivalenceBlocks pins the block-grouped protocol: block
// boundaries (fetch-cycle changes, full blocks) reconstructed from InstIndex
// must regroup the branches exactly as the reference does.
func TestFastPathEquivalenceBlocks(t *testing.T) {
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, FetchWidth: 8, BlockBranches: 4}
	for _, bench := range []string{"gzip", "mcf", "twolf"} {
		prof := mustProfile(t, bench)
		rec := workload.Record(prof, 200_000)
		mk := func() *core.GShareFast {
			return core.New(core.Config{Entries: 1 << 14, Latency: 3})
		}
		want := refRunBlocks(mk(), "blk", rec.Replay(), opts)
		for name, src := range map[string]trace.Source{
			"index":    rec.Replay(),
			"filtered": opaqueSrc{rec.Replay()},
		} {
			got := RunBlocks(mk(), "blk", src, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: RunBlocks diverges:\n got %+v\nwant %+v", bench, name, got, want)
			}
		}
	}
}

// TestBatchedRunAllocs pins the batched accuracy loop allocation-free at
// steady state through the public entry point: Run allocates only the
// engine's fixed per-call lane state, so a 5x longer stream must allocate
// exactly as much per Run as a short one. Skipped under -race, which
// instruments allocation.
func TestBatchedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prof := mustProfile(t, "gzip")
	p := predictor.NewGShareFromBudget(16 << 10)
	measure := func(n int64) float64 {
		cur := workload.Record(prof, n).Replay()
		opts := Options{MaxInsts: n, WarmupInsts: n / 5}
		Run(p, cur, opts) // warm the predictor's lazy state, if any
		return testing.AllocsPerRun(10, func() {
			cur.Reset()
			Run(p, cur, opts)
		})
	}
	allocShort, allocLong := measure(20_000), measure(100_000)
	if allocShort != allocLong {
		t.Fatalf("Run allocates per batch: %.1f allocs on a short stream, %.1f on a long one",
			allocShort, allocLong)
	}
}
