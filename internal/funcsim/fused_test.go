package funcsim

import (
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// fusedLaneKinds is the lane mix for the fused equivalence suite: every
// BatchStepper implementation, the heavy predictors whose lanes take the
// generic scalar loop (the perceptron's Predict-memo must survive many
// lanes interleaving on one stream), and the cycle-aware gshare.fast,
// whose per-lane fetch clock RunMany reconstructs independently.
func fusedLaneKinds() []Lane {
	return []Lane{
		{P: predictor.NewGShareFromBudget(2 << 10)},
		{P: predictor.NewGShareFromBudget(16 << 10)},
		{P: predictor.NewBimodalFromBudget(8 << 10)},
		{P: predictor.NewBiModeFromBudget(16 << 10)},
		{P: predictor.NewPerceptronFromBudget(16 << 10)},
		{P: predictor.NewMultiComponentFromBudget(16 << 10)},
		{P: predictor.NewGSkew2BcFromBudget(16 << 10)},
		{P: core.New(core.Config{Entries: 1 << 14, Latency: 3})},
	}
}

// TestRunManyEquivalence is the engine's correctness contract: each lane
// of one fused pass must be bit-identical to a reference run of the same
// predictor over its own cursor — across benchmarks, across predictor
// kinds (batch-stepping, scalar, and cycle-aware lanes), and in both
// termination modes (instruction budget reached, stream exhausted).
func TestRunManyEquivalence(t *testing.T) {
	cases := []struct {
		bench    string
		recorded int64
	}{
		// Recording longer than MaxInsts: the sweep stops at the budget.
		{"gzip", 200_000},
		{"mcf", 200_000},
		// Recording shorter than MaxInsts: the sweep stops at stream end.
		{"twolf", 80_000},
	}
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, FetchWidth: 3}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			prof := mustProfile(t, tc.bench)
			rec := workload.Record(prof, tc.recorded)
			lanes := fusedLaneKinds()
			got := RunMany(lanes, rec.Replay(), opts)
			want := make([]Result, len(lanes))
			for i, l := range fusedLaneKinds() {
				want[i] = refRun(l.P, rec.Replay(), opts)
			}
			for i := range lanes {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("lane %d (%s) diverges from the reference:\n got %+v\nwant %+v",
						i, lanes[i].P.Name(), got[i], want[i])
				}
			}
		})
	}
}

// TestRunManySingleLane pins the degenerate sweep: one lane must equal the
// reference, including warm-up boundaries that do not land on a batch
// edge.
func TestRunManySingleLane(t *testing.T) {
	prof := mustProfile(t, "gcc")
	rec := workload.Record(prof, 120_000)
	for _, warmup := range []int64{0, 1, 33_333, 119_999} {
		opts := Options{MaxInsts: 120_000, WarmupInsts: warmup}
		got := RunMany([]Lane{{P: predictor.NewGShareFromBudget(4 << 10)}}, rec.Replay(), opts)
		want := refRun(predictor.NewGShareFromBudget(4<<10), rec.Replay(), opts)
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("warmup=%d: single-lane RunMany diverges:\n got %+v\nwant %+v", warmup, got, want)
		}
	}
}

// TestRunManyAllocs pins the fused inner loop allocation-free at steady
// state: RunMany's allocations are setup-only (the per-lane SoA slices),
// so a 5x longer stream must allocate exactly as much as a short one.
// Skipped under -race, which instruments allocation.
func TestRunManyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prof := mustProfile(t, "gzip")
	short := workload.Record(prof, 20_000)
	long := workload.Record(prof, 100_000)
	lanes := []Lane{
		{P: predictor.NewGShareFromBudget(16 << 10)},
		{P: predictor.NewBimodalFromBudget(8 << 10)},
		{P: predictor.NewBiModeFromBudget(16 << 10)},
	}
	opts := Options{MaxInsts: 100_000, WarmupInsts: 20_000}
	measure := func(rec *trace.Recording) float64 {
		cur := rec.Replay()
		return testing.AllocsPerRun(10, func() {
			cur.Reset()
			RunMany(lanes, cur, opts)
		})
	}
	RunMany(lanes, long.Replay(), opts) // warm any lazy state
	allocShort, allocLong := measure(short), measure(long)
	if allocShort != allocLong {
		t.Fatalf("fused loop allocates per batch: %.1f allocs on a short stream, %.1f on a long one",
			allocShort, allocLong)
	}
}
