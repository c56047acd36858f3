package experiments

import (
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
)

// TestPredictorStepAllocs pins every predictor the experiments build
// allocation-free per batch on the path both engines drive: the stepper
// core.BatchStepperOf resolves, fed 256-branch pc/taken/cycle columns. It
// covers each factory kind at each Figure 1 budget, the overriding
// organization of each heavy kind, and a gshare.fast with a 64-branch
// update lag (the delayedupdate ablation's write queue). Skipped under
// -race, which instruments allocation.
func TestPredictorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const batch = 256
	pcs, takens, cycles, preds := make([]uint64, batch), make([]bool, batch), make([]uint64, batch), make([]bool, batch)
	check := func(p predictor.Predictor) {
		t.Helper()
		s := core.BatchStepperOf(p)
		pc, cycle := uint64(0x1000), uint64(0)
		step := func() {
			for i := range pcs {
				pc = pc*5 + 4 // walk over rows and tables
				pcs[i], takens[i] = pc, pc>>7&1 == 1
				cycle += uint64(i & 1) // two branches per fetch cycle
				cycles[i] = cycle
			}
			s.StepBatch(pcs, takens, cycles, preds)
		}
		for i := 0; i < 4; i++ {
			step() // warm any lazy state
		}
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("%s: %.2f allocations per %d-branch StepBatch", p.Name(), allocs, batch)
		}
	}
	for _, kind := range PredictorKinds() {
		for _, budget := range Figure1Budgets() {
			check(mustPredictor(kind, budget))
		}
	}
	for _, kind := range []string{"2bcgskew", "perceptron", "multicomponent"} {
		for _, budget := range Figure1Budgets() {
			check(mustOverriding(kind, budget))
		}
	}
	check(core.New(core.Config{Entries: 1 << 16, Latency: 3, UpdateLag: 64}))
}
