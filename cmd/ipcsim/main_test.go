package main

import (
	"bytes"
	"strings"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/workload"
)

// TestFusedMatchesPerCell pins the streamed report to the per-cell shape
// it replaced: for both modes, the output of one RunMany pass per benchmark
// straight off the generator must equal the report built from one fresh
// pipeline.Sim.Run per (predictor, benchmark) cell over its own recording
// and sidecar. The kinds mix the cycle-aware gshare.fast with
// batch-stepped lanes.
func TestFusedMatchesPerCell(t *testing.T) {
	const insts, warmup = 20_000, 5_000
	kinds := []string{"gshare.fast", "perceptron", "multicomponent", "2bcgskew"}
	profiles := workload.Profiles()
	for _, mode := range []string{"ideal", "realistic"} {
		t.Run(mode, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-predictors", strings.Join(kinds, ","), "-mode", mode,
				"-insts", "20000", "-warmup", "5000"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}

			cfg := pipeline.DefaultConfig()
			perCell := make([][]pipeline.Result, len(kinds))
			for i, kind := range kinds {
				for _, prof := range profiles {
					p, err := buildPredictor(kind, 64<<10, mode)
					if err != nil {
						t.Fatal(err)
					}
					rec := workload.Record(prof, insts)
					sim := pipeline.New(cfg, p)
					sim.SetMemSidecar(pipeline.BuildMemSidecar(rec, pipeline.MemGeometryOf(cfg)))
					perCell[i] = append(perCell[i], sim.Run(rec.Replay(), insts, warmup))
				}
			}
			var want bytes.Buffer
			printReport(&want, kinds, 64<<10, mode, insts, profiles, perCell)
			if stdout.String() != want.String() {
				t.Errorf("fused report differs from the per-cell loop:\n got:\n%s\nwant:\n%s", stdout.String(), want.String())
			}
		})
	}
}

// TestBadFlagsFailBeforeOutput pins that an unknown predictor kind — even
// after valid ones — an unknown mode, a non-positive budget or run length,
// or a warm-up outside [0, -insts) exits 1 with nothing on stdout and the
// offending flag named on stderr.
func TestBadFlagsFailBeforeOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the error
	}{
		{[]string{"-predictors", "gshare.fast,perceptron,nosuch", "-insts", "1000"}, "nosuch"},
		{[]string{"-predictors", "perceptron", "-mode", "bogus", "-insts", "1000"}, "bogus"},
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
