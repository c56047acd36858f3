package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/workload"
)

// timingCellTestOpts is the measurement window of TestTimingMemoEquivalence.
var timingCellTestOpts = Options{Insts: 110_000, Warmup: 30_000, Parallel: 1}

// TestTimingMemoEquivalence pins TimingCell's contract: a one-cell plan
// equals an independent simulation of the same organization (fresh
// predictor, fresh replay, live caches).
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
			got := TimingCell(tc.kind, budget, tc.mode, prof, timingCellTestOpts)
			// The reference recomputes the cell from scratch with no
			// plan, no sidecar and a private replay of the same stream.
			rec := workload.Record(prof, timingCellTestOpts.Insts)
			sim := pipeline.New(pipeline.DefaultConfig(), newTimingParts().timed(tc.kind, budget, tc.mode))
			want := sim.Run(rec.Replay(), timingCellTestOpts.Insts, timingCellTestOpts.Warmup)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("TimingCell diverges from recompute:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
