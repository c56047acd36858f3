package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/workload"
)

// memoTestOpts uses an instruction budget no other test shares, so the
// process-wide memo entries exercised here are this test's own.
var memoTestOpts = Options{Insts: 110_000, Warmup: 30_000, Parallel: 1}

// TestTimingMemoEquivalence pins the memo layer's contract: a memoized Cell
// equals an independent unmemoized simulation (fresh predictor, fresh
// replay, live caches), and duplicate lookups are served from memory.
func TestTimingMemoEquivalence(t *testing.T) {
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("unknown benchmark gzip")
	}
	const budget = 64 << 10
	for _, tc := range []struct {
		name string
		kind string
		mode TimingMode
	}{
		{"ideal-perceptron", "perceptron", Ideal},
		{"realistic-perceptron", "perceptron", Realistic},
		{"gshare.fast", "gshare.fast", Realistic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := timingMemo.Cell(tc.kind, budget, tc.mode, prof, memoTestOpts)
			// The reference recomputes the cell from scratch with no
			// memo, no sidecar and a private replay of the same stream.
			rec := workload.Record(prof, memoTestOpts.Insts)
			sim := pipeline.New(pipeline.DefaultConfig(), newTimingParts().timed(tc.kind, budget, tc.mode))
			want := sim.Run(rec.Replay(), memoTestOpts.Insts, memoTestOpts.Warmup)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("memoized cell diverges from recompute:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestTimingMemoDeduplicates verifies identical cells are simulated once:
// repeat lookups and gshare.fast's mode-invariant cells hit the memo.
func TestTimingMemoDeduplicates(t *testing.T) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	const budget = 32 << 10
	opts := Options{Insts: 120_000, Warmup: 30_000, Parallel: 1}

	_, hits0 := TimingMemoStats()
	first := timingMemo.Cell("gshare.fast", budget, Ideal, prof, opts)
	_, hits1 := TimingMemoStats()
	again := timingMemo.Cell("gshare.fast", budget, Ideal, prof, opts)
	// gshare.fast is pipelined: its realistic organization is the ideal
	// one, so the canonical key collapses the two modes to one cell.
	other := timingMemo.Cell("gshare.fast", budget, Realistic, prof, opts)
	_, hits2 := TimingMemoStats()

	if !reflect.DeepEqual(first, again) || !reflect.DeepEqual(first, other) {
		t.Errorf("duplicate cells differ: %+v / %+v / %+v", first, again, other)
	}
	if hits1 != hits0 {
		t.Errorf("first lookup counted %d hits, want 0", hits1-hits0)
	}
	if hits2-hits1 != 2 {
		t.Errorf("duplicate lookups counted %d hits, want 2", hits2-hits1)
	}
}
