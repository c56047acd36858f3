package experiments

import (
	"fmt"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/workload"
)

// TestOnePassPerBenchmark pins the schedule one plan per run buys: the
// accuracy figures' standard cells, declared by four experiments, run as
// one pass per benchmark, and so do the timing figures' cells, on the one
// cache geometry they share, split only where a group is wider than
// maxTimingLanes. A full run adds one block pass per benchmark, whose
// lanes carry multibranch's four block widths. FuseOff still runs one
// lane per pass.
func TestOnePassPerBenchmark(t *testing.T) {
	nBench := len(workload.Profiles())
	const timWidth = 42 // distinct timing cells per benchmark in figures 2, 7 and 8
	timPasses := nBench * ((timWidth + maxTimingLanes - 1) / maxTimingLanes)
	for _, tc := range []struct {
		name                string
		ids                 []string
		fuse                FuseMode
		accPasses, accLanes int
		timPasses, timLanes int
	}{
		{"accuracy", []string{"figure1", "table2", "figure5", "figure6"}, FuseAuto, nBench, 48 * nBench, 0, 0},
		{"timing", []string{"figure2", "figure7", "figure8"}, FuseAuto, 0, 0, timPasses, timWidth * nBench},
		{"accuracy-nofuse", []string{"figure1", "table2", "figure5", "figure6"}, FuseOff, 48 * nBench, 48 * nBench, 0, 0},
		// 57 plain and 4 block accuracy lanes, and 58 timing lanes (24 + 24
		// + 10) per benchmark.
		{"full", IDs(), FuseAuto, 2 * nBench, (57 + 4) * nBench, 3 * nBench, 58 * nBench},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := Plan(tc.ids, Options{Insts: 8_000, Warmup: 2_000, Fuse: tc.fuse})
			if err != nil {
				t.Fatal(err)
			}
			rp.Execute()
			acc, tim := rp.Tally().Accuracy, rp.Tally().Timing
			if acc.Passes != tc.accPasses || acc.Lanes != tc.accLanes {
				t.Errorf("accuracy: %d passes carrying %d lanes, want %d passes carrying %d",
					acc.Passes, acc.Lanes, tc.accPasses, tc.accLanes)
			}
			if tim.Passes != tc.timPasses || tim.Lanes != tc.timLanes {
				t.Errorf("timing: %d passes carrying %d lanes, want %d passes carrying %d",
					tim.Passes, tim.Lanes, tc.timPasses, tc.timLanes)
			}
		})
	}
}

// TestRunMatchesRunners pins that one shared plan changes when cells are
// simulated, never what an experiment prints: every experiment of a Run
// over the whole registry renders the same bytes as its own ByID runner.
func TestRunMatchesRunners(t *testing.T) {
	opts := Options{Insts: 20_000, Warmup: 5_000, Parallel: 2}
	rp, err := Plan(IDs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rp.Execute()
	for i, out := range rp.Render() {
		id := IDs()[i]
		runner, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.Render(), runner(opts).Render(); got != want {
			t.Errorf("%s: Run renders\n%s\nByID renders\n%s", id, got, want)
		}
	}
}

// TestTimingPassesShareParts pins what one set of parts per pass buys the
// timing figures: each benchmark's two passes hold 13 distinct predictor
// instances each — pass one the perceptron and multi-component at six
// budgets, ideal and behind the one quick gshare; pass two 2Bc-gskew at
// six budgets, ideal and behind the quick gshare, and six gshare.fast,
// which are clocked and so always fresh. A declaration order that split a
// (kind, budget)'s ideal and overriding lanes across passes would build
// its predictor twice and fail here.
func TestTimingPassesShareParts(t *testing.T) {
	rp, err := Plan([]string{"figure2", "figure7", "figure8"}, Options{Insts: 8_000, Warmup: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	perBench := map[string][]int{}
	for _, g := range groupLanes(collapse(rp.plan.tim), maxTimingLanes, timingGroupKey) {
		ss := make([]timingSpec, len(g))
		for i, l := range g {
			ss[i] = l.spec
		}
		distinct := map[predictor.Predictor]bool{}
		for _, l := range timingLanes(ss) {
			if o, ok := l.Pred.(*core.Overriding); ok {
				distinct[o.Quick()], distinct[o.Slow()] = true, true
			} else {
				distinct[l.Pred] = true
			}
		}
		bench := ss[0].prof.Name
		perBench[bench] = append(perBench[bench], len(distinct))
	}
	if len(perBench) != len(workload.Profiles()) {
		t.Fatalf("passes cover %d benchmarks, want %d", len(perBench), len(workload.Profiles()))
	}
	for bench, counts := range perBench {
		if fmt.Sprint(counts) != "[13 13]" {
			t.Errorf("%s: passes hold %v distinct predictors, want [13 13] (26 per benchmark)", bench, counts)
		}
	}
}
