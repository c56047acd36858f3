package experiments

import (
	"fmt"

	"branchsim/internal/core"
	"branchsim/internal/delaymodel"
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

// timingParts is one timing pass's predictor parts: one factory
// predictor per (kind, budget) and one quick gshare per size, so lanes
// whose organizations hold the same part share one instance, and the
// engine steps it once for all of them (pipeline.RunMany). Clocked kinds
// (core.NeedsClock) always get a fresh instance, since a clocked lane
// steps its own. A pass's parts live only inside its group's
// computation, so concurrent groups share nothing.
type timingParts struct {
	preds  map[partKey]predictor.Predictor
	quicks map[int]predictor.Predictor
}

type partKey struct {
	kind   string
	budget int
}

func newTimingParts() *timingParts {
	return &timingParts{preds: map[partKey]predictor.Predictor{}, quicks: map[int]predictor.Predictor{}}
}

// predictor returns the pass's factory predictor of kind at budget.
func (t *timingParts) predictor(kind string, budget int) predictor.Predictor {
	k := partKey{kind, budget}
	if p := t.preds[k]; p != nil {
		return p
	}
	p := mustPredictor(kind, budget)
	if !core.NeedsClock(p) {
		t.preds[k] = p
	}
	return p
}

// quick returns the pass's quick gshare of the given size.
func (t *timingParts) quick(entries int) predictor.Predictor {
	q := t.quicks[entries]
	if q == nil {
		q = predictor.NewGShare(entries, 0)
		t.quicks[entries] = q
	}
	return q
}

// overriding returns kind at budget behind a quick gshare of quickEntries
// entries, with the slow latency from the delay model. A clocked slow
// predictor makes the pair a clocked lane, which gets its quick fresh.
func (t *timingParts) overriding(kind string, budget, quickEntries int) *core.Overriding {
	slow := t.predictor(kind, budget)
	var quick predictor.Predictor
	if core.NeedsClock(slow) {
		quick = predictor.NewGShare(quickEntries, 0)
	} else {
		quick = t.quick(quickEntries)
	}
	return core.NewOverriding(quick, slow, delaymodel.Default.ForPredictor(slow))
}

// timed assembles the predictor organization for a kind under a mode.
func (t *timingParts) timed(kind string, budget int, mode TimingMode) predictor.Predictor {
	if mode == Ideal || kind == "gshare.fast" {
		return t.predictor(kind, budget)
	}
	return t.overriding(kind, budget, QuickEntries)
}

// timingOrg names timed's organization for the cell keys:
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
// Table 1 machine, the cell TimingCell resolves.
func (p *cellPlan) addCell(kind string, budget int, mode TimingMode, prof workload.Profile, sink func(pipeline.Result)) {
	p.addTiming(pipeline.DefaultConfig(), kind, timingOrg(kind, mode), budget, func(t *timingParts) predictor.Predictor {
		return t.timed(kind, budget, mode)
	}, prof, sink)
}

// TimingCell returns the timing Result for the canonical (kind, budget,
// mode) organization on prof's stream under the Table 1 machine. It is a
// one-cell plan on the grids' own path: the persistent store when
// opts.Store is set, then one pass off the benchmark's generator. Nothing
// is kept in memory between calls. It panics, naming the cell, when the
// measured window spans no cycles (pipeline.Result.CheckCycles).
func TimingCell(kind string, budget int, mode TimingMode, prof workload.Profile, opts Options) pipeline.Result {
	plan := newPlan(opts)
	var res pipeline.Result
	plan.addCell(kind, budget, mode, prof, func(r pipeline.Result) { res = r })
	if _, err := plan.execute(); err != nil {
		panic(fmt.Sprintf("experiments: TimingCell: %v", err))
	}
	return res
}

// ipcSweep declares harmonic-mean IPC for each (kind, budget) pair. The
// cells are the (kind, budget, benchmark) simulations; the returned
// closure reduces the harmonic means once the plan has executed.
func ipcSweep(plan *cellPlan, kinds []string, budgets []int, mode TimingMode) func() *textplot.Table {
	profiles := workload.Profiles()
	grid := make([][][]float64, len(budgets)) // [budget][kind][benchmark]
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
	return func() *textplot.Table {
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
}

// figure2 reproduces Figure 2: ideal ("no delay") versus realistic
// (overriding) IPC for the perceptron and multi-component predictors across
// budgets — the motivating result that large complex predictors lose
// performance despite gaining accuracy.
func figure2(plan *cellPlan) func() *Outcome {
	kinds := []string{"perceptron", "multicomponent"}
	idealTable := ipcSweep(plan, kinds, PaperBudgets(), Ideal)
	realTable := ipcSweep(plan, kinds, PaperBudgets(), Realistic)
	return func() *Outcome {
		ideal := idealTable()
		ideal.Title = "Figure 2 (ideal): harmonic mean IPC, no predictor delay"
		real := realTable()
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
}

// figure7 reproduces Figure 7: harmonic-mean IPC for the three complex
// predictors and gshare.fast, with single-cycle prediction (left) and with
// overriding (right).
func figure7(plan *cellPlan) func() *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	idealTable := ipcSweep(plan, kinds, PaperBudgets(), Ideal)
	realTable := ipcSweep(plan, kinds, PaperBudgets(), Realistic)
	return func() *Outcome {
		ideal := idealTable()
		ideal.Title = "Figure 7 (left): harmonic mean IPC, 1-cycle prediction"
		real := realTable()
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
}

// figure8 reproduces Figure 8: per-benchmark IPC at the 53-64 KB design
// point under realistic (overriding) timing, with harmonic means.
func figure8(plan *cellPlan) func() *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	const budget = 64 << 10
	profiles := workload.Profiles()
	values := make([][]float64, len(profiles)+1)
	for i := range values {
		values[i] = make([]float64, len(kinds))
	}
	for pi, prof := range profiles {
		for ki, kind := range kinds {
			plan.addCell(kind, budget, Realistic, prof, func(res pipeline.Result) {
				values[pi][ki] = res.IPC()
			})
		}
	}
	return func() *Outcome {
		values[len(profiles)] = columnMeans(values[:len(profiles)], stats.HarmonicMean)
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
}
