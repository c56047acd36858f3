package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// tiny makes experiments fast enough for unit tests: results are noisy but
// structure and plumbing are fully exercised.
var tiny = Options{Insts: 150_000, Warmup: 30_000}

// runOne runs one registered experiment alone.
func runOne(t *testing.T, id string, opts Options) *Outcome {
	t.Helper()
	outs, err := Run([]string{id}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func TestRegistryComplete(t *testing.T) {
	// DESIGN.md's experiment index: every paper table/figure plus the
	// ablations must be registered.
	want := []string{"figure1", "table2", "figure2", "figure5", "figure6",
		"figure7", "figure8", "delayedupdate", "overriderate", "multibranch",
		"buffersweep", "quicksweep", "depthsweep", "fastfamily", "recovery"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nonsense"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := ByID("figure5"); err != nil {
		t.Fatal(err)
	}
}

func TestNewPredictorKinds(t *testing.T) {
	for _, kind := range PredictorKinds() {
		p, err := NewPredictor(kind, 32<<10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p == nil {
			t.Fatalf("%s: nil predictor", kind)
		}
	}
	if _, err := NewPredictor("bogus", 1024); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestNewOverridingLatencies(t *testing.T) {
	o, err := NewOverriding("perceptron", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if o.Latency() < 2 {
		t.Fatalf("perceptron at 256KB should be multi-cycle, got %d", o.Latency())
	}
	small, _ := NewOverriding("2bcgskew", 16<<10)
	large, _ := NewOverriding("2bcgskew", 512<<10)
	if large.Latency() <= small.Latency() {
		t.Fatalf("latency did not grow: %d -> %d", small.Latency(), large.Latency())
	}
}

func TestTable2Structure(t *testing.T) {
	out := runOne(t, "table2", Options{})
	if out.ID != "table2" || len(out.Tables) != 1 {
		t.Fatalf("bad outcome: %+v", out)
	}
	tab := out.Tables[0]
	if len(tab.Rows) != len(PaperBudgets()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// gshare.fast effective latency column must be all ones.
	last := len(tab.Cols) - 1
	for i := range tab.Rows {
		if tab.Values[i][last] != 1 {
			t.Fatalf("gshare.fast effective latency at %s = %v", tab.Rows[i], tab.Values[i][last])
		}
	}
	// Complex-predictor latencies grow with budget.
	for j := 0; j < 3; j++ {
		if tab.Values[len(tab.Rows)-1][j] <= tab.Values[0][j] {
			t.Errorf("column %s latency did not grow", tab.Cols[j])
		}
	}
}

func TestFigure6SmallRun(t *testing.T) {
	out := runOne(t, "figure6", tiny)
	tab := out.Tables[0]
	if len(tab.Rows) != 13 { // 12 benchmarks + MEAN
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Cols) != 4 {
		t.Fatalf("cols = %d", len(tab.Cols))
	}
	for i, row := range tab.Values {
		for j, v := range row {
			if v < 0 || v > 60 {
				t.Errorf("cell (%d,%d) = %v out of range", i, j, v)
			}
		}
	}
	if !strings.Contains(out.Render(), "figure6") {
		t.Fatal("render missing id")
	}
}

func TestMultiBranchSmallRun(t *testing.T) {
	out := runOne(t, "multibranch", tiny)
	tab := out.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Buffer entries must grow with block width once past the line
	// minimum (column 1).
	if tab.Values[3][1] < tab.Values[0][1] {
		t.Fatalf("buffer entries shrank: %v -> %v", tab.Values[0][1], tab.Values[3][1])
	}
	// Accuracy at b=8 must not be better than b=1 beyond noise.
	if tab.Values[3][0] < tab.Values[0][0]-0.5 {
		t.Fatalf("wider blocks improved accuracy: %v vs %v", tab.Values[3][0], tab.Values[0][0])
	}
}

func TestDelayedUpdateSmallRun(t *testing.T) {
	out := runOne(t, "delayedupdate", tiny)
	tab := out.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// lag=64 misprediction within 1.5 points of lag=0 even on this tiny
	// noisy run (the paper's effect is ~0.04 points).
	if tab.Values[2][0] > tab.Values[0][0]+1.5 {
		t.Fatalf("delayed update cost too much: %v vs %v", tab.Values[2][0], tab.Values[0][0])
	}
}

func TestBudgetHelpers(t *testing.T) {
	if len(PaperBudgets()) != 6 || PaperBudgets()[0] != 16<<10 || PaperBudgets()[5] != 512<<10 {
		t.Fatalf("paper budgets: %v", PaperBudgets())
	}
	if len(Figure1Budgets()) != 9 || Figure1Budgets()[0] != 2<<10 {
		t.Fatalf("figure 1 budgets: %v", Figure1Budgets())
	}
}

func TestOutcomeRenderAndTableLookup(t *testing.T) {
	out := runOne(t, "table2", Options{})
	if out.Table("Table 2") == nil {
		t.Fatal("table lookup by prefix failed")
	}
	if out.Table("zzz") != nil {
		t.Fatal("bogus prefix matched")
	}
	r := out.Render()
	if !strings.Contains(r, "### table2") || !strings.Contains(r, "note:") {
		t.Fatalf("render incomplete:\n%s", r)
	}
}

func TestRunCellsCoversAll(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		hit := make([]bool, 37)
		var cells []PlannedCell
		for i := range hit {
			cells = append(cells, PlannedCell{Key: "test|none", Run: func() { hit[i] = true }})
		}
		RunCells(par, cells)
		for i, h := range hit {
			if !h {
				t.Fatalf("parallel=%d: index %d not visited", par, i)
			}
		}
	}
}

// TestRunCellsPanicKey pins the scheduler's panic contract: a panic inside
// any cell — serial or sharded — is re-raised from RunCells carrying the
// offending cell's canonical key, not a bare worker stack.
func TestRunCellsPanicKey(t *testing.T) {
	const key = "family=timing|kind=gshare|org=ideal|budget=8192|bench=164.gzip"
	for _, par := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: panic not re-raised", par)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, key) || !strings.Contains(msg, "boom") {
					t.Fatalf("parallel=%d: panic lost cell context: %v", par, r)
				}
			}()
			var cells []PlannedCell
			for i := 0; i < 16; i++ {
				cells = append(cells, PlannedCell{Key: fmt.Sprintf("test|ok|%d", i), Run: func() {}})
			}
			cells = append(cells, PlannedCell{Key: key, Run: func() { panic("boom") }})
			RunCells(par, cells)
		}()
	}
}
