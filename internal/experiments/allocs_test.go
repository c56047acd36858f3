package experiments

import (
	"testing"

	"branchsim/internal/predictor"
)

// TestPredictorStepAllocs pins every predictor the experiments build
// allocation-free per branch: for each factory kind at each Figure 1 budget,
// and for the overriding organization of each heavy kind, one Predict plus
// one Update allocates nothing once the predictor is warm. Skipped under
// -race, which instruments allocation.
func TestPredictorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	check := func(p predictor.Predictor) {
		t.Helper()
		pc, taken := uint64(0x1000), false
		step := func() {
			pc = pc*5 + 4 // walk over rows and tables
			taken = !taken
			p.Predict(pc)
			p.Update(pc, taken)
		}
		for i := 0; i < 100; i++ {
			step() // warm any lazy state
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: %.1f allocations per Predict+Update", p.Name(), allocs)
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
}
