package main

import (
	"bytes"
	"strings"
	"testing"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/workload"
)

// TestFusedMatchesPerCell pins the streamed report to the per-cell shape
// it replaced: with and without -perclass, the output of one RunMany pass
// per benchmark straight off the generator must equal the report built
// from one funcsim.Run per (predictor, benchmark) cell over its own
// recording (without -perclass) or its own generator (with it). The kinds
// mix the cycle-aware gshare.fast and a predictor with no stepper of its
// own with natively stepped lanes.
func TestFusedMatchesPerCell(t *testing.T) {
	const insts, warmup = 20_000, 5_000
	kinds := []string{"gshare.fast", "local", "gshare", "perceptron", "multicomponent", "2bcgskew"}
	profiles := workload.Profiles()
	for _, perClass := range []bool{false, true} {
		name := "plain"
		args := []string{"-predictors", strings.Join(kinds, ","), "-insts", "20000", "-warmup", "5000"}
		if perClass {
			name = "perclass"
			args = append(args, "-perclass")
		}
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}

			opts := funcsim.Options{MaxInsts: insts, WarmupInsts: warmup, PerClass: perClass}
			perCell := make([][]funcsim.Result, len(kinds))
			for i, kind := range kinds {
				for _, prof := range profiles {
					p, err := experiments.NewPredictor(kind, 64<<10)
					if err != nil {
						t.Fatal(err)
					}
					if perClass {
						// A recording does not classify its branches;
						// the live generator does.
						perCell[i] = append(perCell[i], funcsim.Run(p, workload.New(prof), opts))
					} else {
						perCell[i] = append(perCell[i], funcsim.Run(p, workload.Record(prof, insts).Replay(), opts))
					}
				}
			}
			var want bytes.Buffer
			printReport(&want, kinds, 64<<10, insts, perClass, profiles, perCell)
			if stdout.String() != want.String() {
				t.Errorf("fused report differs from the per-cell loop:\n got:\n%s\nwant:\n%s", stdout.String(), want.String())
			}
		})
	}
}

// TestBadKindFailsBeforeOutput pins that an unknown predictor kind, even
// after valid ones, a non-positive budget or run length, or a warm-up
// outside [0, -insts) exits 1 with nothing on stdout and the offending flag
// named on stderr.
func TestBadKindFailsBeforeOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the error
	}{
		{[]string{"-predictors", "gshare,perceptron,nosuch", "-insts", "1000"}, "nosuch"},
		{[]string{"-insts", "0"}, "-insts"},
		{[]string{"-insts", "-5"}, "-insts"},
		{[]string{"-insts", "1000", "-warmup", "2000"}, "-warmup"},
		{[]string{"-insts", "1000", "-warmup", "1000"}, "-warmup"},
		{[]string{"-insts", "1000", "-warmup", "-100"}, "-warmup"},
		{[]string{"-insts", "1000", "-budget", "0"}, "-budget"},
		{[]string{"-insts", "1000", "-budget", "-5"}, "-budget"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before failing:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%v: error %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
	}
}
