package main

import (
	"bytes"
	"strings"
	"testing"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/workload"
)

// TestFusedMatchesPerCell pins the fused report to the per-cell shape it
// replaced: with and without -perclass, the output of one RunMany pass per
// benchmark must equal the report built from one funcsim.Run per
// (predictor, benchmark) cell over its own replay. The kinds mix the
// cycle-aware gshare.fast and a predictor with no batch protocol with
// batch-stepped lanes.
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
					src := workload.Record(prof, insts).Replay()
					if perClass {
						perCell[i] = append(perCell[i], funcsim.Run(p, workload.Classify(src, prof), opts))
					} else {
						perCell[i] = append(perCell[i], funcsim.Run(p, src, opts))
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
// after valid ones, exits 1 with nothing on stdout.
func TestBadKindFailsBeforeOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-predictors", "gshare,perceptron,nosuch", "-insts", "1000"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed before failing:\n%s", stdout.String())
	}
	if stderr.Len() == 0 {
		t.Error("no error message")
	}
}
