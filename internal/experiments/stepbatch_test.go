package experiments

import (
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// TestFactoryBatchSteppers holds every predictor the experiments can build
// to the BatchStepper contract: for each factory kind at each Figure 1
// budget (a superset of the paper budgets), the stepper core.BatchStepperOf
// resolves — the kind's own or the per-branch adapter — must, over uneven
// batches with a cycle column, predict every branch exactly as the
// OnCycle/Predict/Update sequence does, and leave the predictor predicting
// exactly as the scalar-stepped twin does. A kind that gains a StepBatch is
// covered here without being named.
func TestFactoryBatchSteppers(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	var branches [20_000]trace.BranchRec
	if n := trace.FilterBranches(workload.New(prof)).NextBranches(branches[:]); n != len(branches) {
		t.Fatalf("stream yielded %d branches, want %d", n, len(branches))
	}
	// Batch sizes cycle unevenly.
	sizes := []int{1, 7, 256, 33, 100, 3, 255}

	covered := map[string]bool{}
	for _, kind := range PredictorKinds() {
		for _, budget := range Figure1Budgets() {
			p, ref := mustPredictor(kind, budget), mustPredictor(kind, budget)
			if _, native := p.(predictor.BatchStepper); native {
				covered[kind] = true
			}
			s := core.BatchStepperOf(p)
			clock, _ := ref.(predictor.CycleAware)
			pcs := make([]uint64, 0, 256)
			takens := make([]bool, 0, 256)
			cycles := make([]uint64, 0, 256)
			preds := make([]bool, 256)
			for pos, k := 0, 0; pos < len(branches); k++ {
				batch := branches[pos:min(pos+sizes[k%len(sizes)], len(branches))]
				pcs, takens, cycles = pcs[:0], takens[:0], cycles[:0]
				for _, b := range batch {
					pcs = append(pcs, b.PC)
					takens = append(takens, b.Taken)
					cycles = append(cycles, uint64(b.InstIndex+1)/3)
				}
				s.StepBatch(pcs, takens, cycles, preds)
				for i, b := range batch {
					if clock != nil {
						clock.OnCycle(cycles[i])
					}
					want := ref.Predict(b.PC)
					ref.Update(b.PC, b.Taken)
					if preds[i] != want {
						t.Fatalf("%s at %d bytes, batch %d at branch %d: StepBatch predicts %v, Predict/Update %v",
							kind, budget, k, pos+i, preds[i], want)
					}
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
	for _, kind := range []string{"bimodal", "gshare", "bimode", "2bcgskew", "perceptron", "multicomponent", "gshare.fast", "bimode.fast"} {
		if !covered[kind] {
			t.Errorf("%s no longer implements BatchStepper; was the stepper dropped on purpose?", kind)
		}
	}
}
