package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadRunFlagsFailBeforeOutput pins that a negative run length or
// warm-up, or a warm-up at or past the effective run length (the 8M default
// when -insts is 0), exits 1 with nothing on stdout and the offending flag
// named on stderr, before any experiment runs or any store is opened.
func TestBadRunFlagsFailBeforeOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the error
	}{
		{[]string{"-insts", "-5"}, "-insts"},
		{[]string{"-warmup", "-100"}, "-warmup"},
		{[]string{"-insts", "1000", "-warmup", "2000"}, "-warmup"},
		{[]string{"-insts", "1000", "-warmup", "1000"}, "-warmup"},
		{[]string{"-warmup", "8000000"}, "-warmup"},
	} {
		args := append([]string{"-nostore", "-experiment", "figure8"}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
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

// TestFusedMatchesNofuse is the stdout gate every engine change relies
// on: every experiment, run fused on one worker and -nofuse (each cell a
// one-lane pass) on two, must print the same bytes. Fused passes share
// predictor instances and memory classification across lanes and
// -nofuse passes do not, and the two schedules order the cells
// differently, so any lane-to-lane leak or order dependence shows here.
func TestFusedMatchesNofuse(t *testing.T) {
	insts := "20000"
	if raceEnabled {
		insts = "4000"
	}
	out := func(args ...string) string {
		args = append([]string{"-nostore", "-experiment", "all", "-insts", insts}, args...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	fused, nofuse := out("-parallel", "1"), out("-nofuse", "-parallel", "2")
	if fused != nofuse {
		t.Errorf("-nofuse -parallel 2 stdout differs from fused -parallel 1:\n fused:\n%s\nnofuse:\n%s", fused, nofuse)
	}
}

// TestZeroCycleWindowFails pins that a timing cell whose measured window
// spans no cycles — every measured instruction commits in the warm-up's
// last cycle, so IPC is undefined — exits 1 with one line on stderr naming
// the cell (organization and benchmark) and nothing on stdout, not a
// partial table.
func TestZeroCycleWindowFails(t *testing.T) {
	args := []string{"-nostore", "-experiment", "figure8", "-insts", "4", "-warmup", "3"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a partial table:\n%s", stdout.String())
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "timing cell multicomponent/override at 65536 B on 164.gzip") ||
		!strings.Contains(msg, "0 cycles") {
		t.Errorf("error %q is not one line naming the cell and its empty window", msg)
	}
}

// TestListAndUnknownExperiment pins the refactored entry point's other
// exits: -list prints the experiment ids and exits 0, and an unknown
// experiment id exits 1 with the id named on stderr.
func TestListAndUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "figure8\n") {
		t.Errorf("-list does not name figure8:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-nostore", "-experiment", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown experiment: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("unknown experiment: error %q does not name it", stderr.String())
	}
}
