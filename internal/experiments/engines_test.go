package experiments

import (
	"fmt"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/workload"
)

// TestEnginesAgree pins the two simulators to each other where they must
// agree: on one stream and window, the accuracy engine's Branches and
// Mispredicts for a factory predictor equal the timing engine's for the
// same predictor ideal (single-cycle) and realistic (behind the quick
// gshare, whose final prediction is the slow predictor's). That holds for
// the unclocked kinds and for gshare.fast, whose realistic organization is
// its ideal one. Every cell is the one accuracyCell, TimingCell(…, Ideal)
// and TimingCell(…, Realistic) resolve, declared into one plan so each
// benchmark runs one accuracy pass and a few timing passes.
func TestEnginesAgree(t *testing.T) {
	opts := Options{Insts: 60_000, Warmup: 15_000}
	if raceEnabled {
		opts = Options{Insts: 6_000, Warmup: 1_500}
	}
	kinds := []string{"gshare", "bimode", "perceptron", "2bcgskew", "multicomponent", "gshare.fast"}
	type cells struct {
		name             string
		acc              funcsim.Result
		ideal, realistic pipeline.Result
	}
	plan := newPlan(opts)
	var got []*cells
	for _, kind := range kinds {
		for _, budget := range PaperBudgets() {
			for _, prof := range workload.Profiles() {
				c := &cells{name: fmt.Sprintf("%s/%dKB/%s", kind, budget>>10, prof.Name)}
				got = append(got, c)
				plan.addAccuracy(kind, "", budget, func() predictor.Predictor { return mustPredictor(kind, budget) }, prof,
					func(r funcsim.Result) { c.acc = r })
				plan.addCell(kind, budget, Ideal, prof, func(r pipeline.Result) { c.ideal = r })
				plan.addCell(kind, budget, Realistic, prof, func(r pipeline.Result) { c.realistic = r })
			}
		}
	}
	mustExecute(t, plan)
	for _, c := range got {
		if c.acc.Branches == 0 {
			t.Fatalf("%s: no branches measured", c.name)
		}
		for _, tc := range []struct {
			mode string
			res  pipeline.Result
		}{{"ideal", c.ideal}, {"realistic", c.realistic}} {
			if tc.res.Branches != c.acc.Branches || tc.res.Mispredicts != c.acc.Mispredicts {
				t.Errorf("%s %s: timing engine %d branches/%d mispredicts, accuracy engine %d/%d",
					c.name, tc.mode, tc.res.Branches, tc.res.Mispredicts, c.acc.Branches, c.acc.Mispredicts)
			}
		}
	}
}
