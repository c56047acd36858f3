package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// TestPredictIsPure holds every factory kind to the contract the batch
// steppers and the overriding organization rest on: Predict reads
// predictor state and never writes it; Update is the one mutation point.
// Two predictors of one kind and budget step through the same branch
// stream, and before each step one of them also answers Predict for a few
// other PCs. Every prediction on the stream, and the whole predictor state
// at the end, must match: a Predict that trains a counter, pushes history,
// advances a clock or keeps a memo Update does not overwrite makes the
// probed twin diverge.
func TestPredictIsPure(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	var branches [20_000]trace.BranchRec
	if n := trace.FilterBranches(workload.New(prof)).NextBranches(branches[:]); n != len(branches) {
		t.Fatalf("stream yielded %d branches, want %d", n, len(branches))
	}
	for _, kind := range PredictorKinds() {
		for _, budget := range []int{4 << 10, 64 << 10} {
			plain, probed := mustPredictor(kind, budget), mustPredictor(kind, budget)
			plainClock, _ := plain.(predictor.CycleAware)
			probedClock, _ := probed.(predictor.CycleAware)
			// A cycle-aware kind clocks itself at the small budget and
			// reads a fetch clock at the large one.
			clocked := plainClock != nil && budget > 4<<10
			for i, b := range branches {
				if clocked {
					cycle := uint64(b.InstIndex+1) / 8
					plainClock.OnCycle(cycle)
					probedClock.OnCycle(cycle)
				}
				// Probe a neighbour, a far PC and a branch from elsewhere
				// in the stream.
				for _, pc := range []uint64{b.PC + 4, b.PC ^ 0x5a5a40, branches[(i*7919)%len(branches)].PC} {
					probed.Predict(pc)
				}
				if got, want := probed.Predict(b.PC), plain.Predict(b.PC); got != want {
					t.Fatalf("%s at %d bytes, branch %d: probed twin predicts %v, plain %v", kind, budget, i, got, want)
				}
				plain.Update(b.PC, b.Taken)
				probed.Update(b.PC, b.Taken)
			}
			if !reflect.DeepEqual(plain, probed) {
				t.Fatalf("%s at %d bytes: extra Predict calls changed the predictor's state", kind, budget)
			}
		}
	}
}
