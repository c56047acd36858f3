package experiments

import (
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// TestFactoryBatchSteppers holds every batch-stepping predictor the
// experiments can build to the BatchStepper contract: for each factory kind
// at each Figure 1 budget (a superset of the paper budgets) whose predictor
// implements predictor.BatchStepper, StepBatch over uneven batches — with
// the warm-up boundary falling inside a batch — must count exactly the
// mispredicts of the Predict/Update pair per branch, and leave the
// predictor predicting exactly as the scalar-stepped twin does. A kind that
// gains a StepBatch is covered here without being named.
func TestFactoryBatchSteppers(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	var branches [20_000]trace.BranchRec
	if n := trace.FilterBranches(workload.New(prof)).NextBranches(branches[:]); n != len(branches) {
		t.Fatalf("stream yielded %d branches, want %d", n, len(branches))
	}
	// Batch sizes cycle unevenly; the warm-up boundary lands mid-batch.
	sizes := []int{1, 7, 256, 33, 100, 3, 255}
	const warmup = 5_003

	covered := map[string]bool{}
	for _, kind := range PredictorKinds() {
		for _, budget := range Figure1Budgets() {
			p, ref := mustPredictor(kind, budget), mustPredictor(kind, budget)
			s, ok := p.(predictor.BatchStepper)
			if !ok {
				continue
			}
			covered[kind] = true
			pcs := make([]uint64, 0, 256)
			takens := make([]bool, 0, 256)
			for pos, k := 0, 0; pos < len(branches); k++ {
				batch := branches[pos:min(pos+sizes[k%len(sizes)], len(branches))]
				from := min(max(warmup-pos, 0), len(batch))
				pcs, takens = pcs[:0], takens[:0]
				var want int64
				for i, b := range batch {
					pcs = append(pcs, b.PC)
					takens = append(takens, b.Taken)
					pred := ref.Predict(b.PC)
					ref.Update(b.PC, b.Taken)
					if i >= from && pred != b.Taken {
						want++
					}
				}
				if got := s.StepBatch(pcs, takens, from); got != want {
					t.Fatalf("%s at %d bytes, batch %d at branch %d (measured from %d): StepBatch counted %d mispredicts, Predict/Update %d",
						kind, budget, k, pos, from, got, want)
				}
				pos += len(batch)
			}
			for _, b := range branches {
				if p.Predict(b.PC) != ref.Predict(b.PC) {
					t.Fatalf("%s at %d bytes: batch-stepped state predicts differently at pc %#x", kind, budget, b.PC)
				}
			}
		}
	}
	for _, kind := range []string{"bimodal", "gshare", "bimode", "2bcgskew", "perceptron", "multicomponent"} {
		if !covered[kind] {
			t.Errorf("%s no longer implements BatchStepper; was the stepper dropped on purpose?", kind)
		}
	}
}
