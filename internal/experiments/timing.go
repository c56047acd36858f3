package experiments

import (
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/textplot"
	"branchsim/internal/workload"
)

// TimingMode selects the predictor organization for IPC experiments.
type TimingMode int

const (
	// Ideal gives every predictor a single-cycle response regardless of
	// size — the paper's "No Delay" curves.
	Ideal TimingMode = iota
	// Realistic puts complex predictors behind a 2K-entry quick gshare
	// in an overriding organization with delay-model latencies;
	// gshare.fast runs pipelined and pays nothing.
	Realistic
)

// buildTimed assembles the predictor organization for a kind under a mode.
func buildTimed(kind string, budget int, mode TimingMode) predictor.Predictor {
	if mode == Ideal || kind == "gshare.fast" {
		return mustPredictor(kind, budget)
	}
	return mustOverriding(kind, budget)
}

// timingOrg names buildTimed's organization for the cell keys:
// "ideal" for the bare single-cycle predictor (gshare.fast's organization
// is mode-invariant, so its realistic cells collapse to the same entry),
// "override" behind the 2K-entry quick gshare.
func timingOrg(kind string, mode TimingMode) string {
	if mode == Ideal || kind == "gshare.fast" {
		return "ideal"
	}
	return "override"
}

// addCell declares the canonical (kind, budget, mode) timing cell on the
// Table 1 machine, the cell TimingMemo.Cell resolves.
func (p *cellPlan) addCell(kind string, budget int, mode TimingMode, prof workload.Profile, sink func(pipeline.Result)) {
	p.addTiming(pipeline.DefaultConfig(), kind, timingOrg(kind, mode), budget, func() predictor.Predictor {
		return buildTimed(kind, budget, mode)
	}, prof, sink)
}

// ipcSweep measures harmonic-mean IPC for each (kind, budget) pair. The
// plan's cells are the distinct (kind, budget, benchmark) simulations; the
// harmonic mean is reduced after the plan completes.
func ipcSweep(kinds []string, budgets []int, mode TimingMode, opts Options) *textplot.Table {
	profiles := workload.Profiles()
	grid := make([][][]float64, len(budgets)) // [budget][kind][benchmark]
	plan := newPlan(opts)
	for bi, budget := range budgets {
		grid[bi] = make([][]float64, len(kinds))
		for ki, kind := range kinds {
			grid[bi][ki] = make([]float64, len(profiles))
			for pi, prof := range profiles {
				plan.addCell(kind, budget, mode, prof, func(res pipeline.Result) {
					grid[bi][ki][pi] = res.IPC()
				})
			}
		}
	}
	plan.execute()
	values := make([][]float64, len(budgets))
	for bi := range budgets {
		values[bi] = make([]float64, len(kinds))
		for ki := range kinds {
			values[bi][ki] = stats.HarmonicMean(grid[bi][ki])
		}
	}
	rows := make([]string, len(budgets))
	for i, b := range budgets {
		rows[i] = budgetLabel(b)
	}
	return &textplot.Table{
		RowHeader: "budget",
		Rows:      rows,
		Cols:      kinds,
		Values:    values,
	}
}

// Figure2 reproduces Figure 2: ideal ("no delay") versus realistic
// (overriding) IPC for the perceptron and multi-component predictors across
// budgets — the motivating result that large complex predictors lose
// performance despite gaining accuracy.
func Figure2(opts Options) *Outcome {
	kinds := []string{"perceptron", "multicomponent"}
	ideal := ipcSweep(kinds, PaperBudgets(), Ideal, opts)
	ideal.Title = "Figure 2 (ideal): harmonic mean IPC, no predictor delay"
	real := ipcSweep(kinds, PaperBudgets(), Realistic, opts)
	real.Title = "Figure 2 (realistic): harmonic mean IPC, overriding organization"
	return &Outcome{
		ID:     "figure2",
		Title:  "Ideal vs realistic IPC for complex predictors",
		Tables: []*textplot.Table{ideal, real},
		Charts: []*textplot.Chart{
			sweepChart(ideal, "budget", "IPC"),
			sweepChart(real, "budget", "IPC"),
		},
		Notes: []string{
			"expected shape: ideal IPC rises (or holds) with budget; realistic IPC peaks at a moderate budget and falls as access delay grows",
		},
	}
}

// Figure7 reproduces Figure 7: harmonic-mean IPC for the three complex
// predictors and gshare.fast, with single-cycle prediction (left) and with
// overriding (right).
func Figure7(opts Options) *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	ideal := ipcSweep(kinds, PaperBudgets(), Ideal, opts)
	ideal.Title = "Figure 7 (left): harmonic mean IPC, 1-cycle prediction"
	real := ipcSweep(kinds, PaperBudgets(), Realistic, opts)
	real.Title = "Figure 7 (right): harmonic mean IPC, overriding prediction"
	return &Outcome{
		ID:     "figure7",
		Title:  "IPC of complex predictors vs gshare.fast, ideal and realistic",
		Tables: []*textplot.Table{ideal, real},
		Charts: []*textplot.Chart{
			sweepChart(ideal, "budget", "IPC"),
			sweepChart(real, "budget", "IPC"),
		},
		Notes: []string{
			"expected shape: with delay accounted, the complex predictors' advantage vanishes; gshare.fast matches or beats them at large budgets",
		},
	}
}

// Figure8 reproduces Figure 8: per-benchmark IPC at the 53-64 KB design
// point under realistic (overriding) timing, with harmonic means.
func Figure8(opts Options) *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	const budget = 64 << 10
	profiles := workload.Profiles()
	values := make([][]float64, len(profiles)+1)
	for i := range values {
		values[i] = make([]float64, len(kinds))
	}
	plan := newPlan(opts)
	for pi, prof := range profiles {
		for ki, kind := range kinds {
			plan.addCell(kind, budget, Realistic, prof, func(res pipeline.Result) {
				values[pi][ki] = res.IPC()
			})
		}
	}
	plan.execute()
	for ki := range kinds {
		col := make([]float64, len(profiles))
		for pi := range profiles {
			col[pi] = values[pi][ki]
		}
		values[len(profiles)][ki] = stats.HarmonicMean(col)
	}
	t := &textplot.Table{
		Title:     "Figure 8: per-benchmark IPC at the 53-64KB design point (overriding timing)",
		RowHeader: "benchmark",
		Rows:      append(benchNames(), "HMEAN"),
		Cols:      kinds,
		Values:    values,
	}
	return &Outcome{
		ID:     "figure8",
		Title:  "Per-benchmark IPC at ~64KB, realistic timing",
		Tables: []*textplot.Table{t},
		Notes: []string{
			"expected shape: IPCs are about the same across predictors; some benchmarks favor the complex predictors, others gshare.fast",
		},
	}
}
