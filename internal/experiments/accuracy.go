package experiments

import (
	"branchsim/internal/funcsim"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/textplot"
	"branchsim/internal/workload"
)

// mispredictSweep declares arithmetic-mean misprediction rates for each
// (kind, budget) pair over the full benchmark suite. The cells are the
// (kind, budget, benchmark) simulations, declared as accuracy specs so
// the scheduler can fuse each benchmark's cold column into one pass; the
// returned closure reduces the means once the plan has executed.
func mispredictSweep(plan *cellPlan, kinds []string, budgets []int) func() *textplot.Table {
	profiles := workload.Profiles()
	grid := make([][][]float64, len(budgets)) // [budget][kind][benchmark]
	for bi, budget := range budgets {
		grid[bi] = make([][]float64, len(kinds))
		for ki, kind := range kinds {
			grid[bi][ki] = make([]float64, len(profiles))
			for pi, prof := range profiles {
				plan.addAccuracy(kind, "", budget, func() predictor.Predictor {
					return mustPredictor(kind, budget)
				}, prof, func(res funcsim.Result) {
					grid[bi][ki][pi] = res.MispredictPercent()
				})
			}
		}
	}
	return func() *textplot.Table {
		values := make([][]float64, len(budgets))
		for bi := range budgets {
			values[bi] = make([]float64, len(kinds))
			for ki := range kinds {
				values[bi][ki] = stats.Mean(grid[bi][ki])
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

// figure1 reproduces the paper's Figure 1: arithmetic-mean misprediction
// rates on SPECint 2000 for gshare, bi-mode, the multi-component hybrid and
// the perceptron predictor, across hardware budgets from 2 KB to 512 KB.
func figure1(plan *cellPlan) func() *Outcome {
	kinds := []string{"gshare", "bimode", "multicomponent", "perceptron"}
	table := mispredictSweep(plan, kinds, Figure1Budgets())
	return func() *Outcome {
		t := table()
		t.Title = "Figure 1: arithmetic mean misprediction rate (%) vs hardware budget"
		chart := sweepChart(t, "budget (bytes)", "% mispredicted")
		return &Outcome{
			ID:     "figure1",
			Title:  "Misprediction rates of classic and complex predictors across budgets",
			Tables: []*textplot.Table{t},
			Charts: []*textplot.Chart{chart},
			Notes: []string{
				"expected shape: all curves fall as budget grows; perceptron and multi-component sit below gshare/bi-mode",
			},
		}
	}
}

// figure5 reproduces Figure 5: mean misprediction rates for the three
// complex predictors and gshare.fast, 16 KB to 512 KB.
func figure5(plan *cellPlan) func() *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	table := mispredictSweep(plan, kinds, PaperBudgets())
	return func() *Outcome {
		t := table()
		t.Title = "Figure 5: arithmetic mean misprediction rate (%) vs hardware budget"
		chart := sweepChart(t, "budget (bytes)", "% mispredicted")
		return &Outcome{
			ID:     "figure5",
			Title:  "Accuracy of complex predictors vs gshare.fast",
			Tables: []*textplot.Table{t},
			Charts: []*textplot.Chart{chart},
			Notes: []string{
				"expected shape: slight accuracy advantage for the complex predictors over gshare.fast at every budget",
			},
		}
	}
}

// figure6 reproduces Figure 6: per-benchmark misprediction rates at the
// ~53-64 KB design point (the paper compares 53 KB complex predictors with
// a 64 KB gshare.fast).
func figure6(plan *cellPlan) func() *Outcome {
	kinds := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	const budget = 64 << 10
	profiles := workload.Profiles()
	values := make([][]float64, len(profiles)+1)
	for i := range values {
		values[i] = make([]float64, len(kinds))
	}
	for pi, prof := range profiles {
		for ki, kind := range kinds {
			plan.addAccuracy(kind, "", budget, func() predictor.Predictor {
				return mustPredictor(kind, budget)
			}, prof, func(res funcsim.Result) {
				values[pi][ki] = res.MispredictPercent()
			})
		}
	}
	return func() *Outcome {
		values[len(profiles)] = columnMeans(values[:len(profiles)], stats.Mean)
		t := &textplot.Table{
			Title:     "Figure 6: per-benchmark misprediction rate (%) at the 53-64KB design point",
			RowHeader: "benchmark",
			Rows:      append(benchNames(), "MEAN"),
			Cols:      kinds,
			Values:    values,
		}
		return &Outcome{
			ID:     "figure6",
			Title:  "Per-benchmark misprediction rates at ~64KB",
			Tables: []*textplot.Table{t},
		}
	}
}

// columnMeans reduces each column of rows with mean.
func columnMeans(rows [][]float64, mean func([]float64) float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for ki := range out {
		for pi, row := range rows {
			col[pi] = row[ki]
		}
		out[ki] = mean(col)
	}
	return out
}

// sweepChart turns a budgets-by-kinds table into a line chart.
func sweepChart(t *textplot.Table, xlabel, ylabel string) *textplot.Chart {
	chart := &textplot.Chart{
		Title:  t.Title + " (chart)",
		X:      t.Rows,
		XLabel: xlabel,
		YLabel: ylabel,
	}
	for j, kind := range t.Cols {
		s := textplot.Series{Name: kind}
		for i := range t.Rows {
			s.Values = append(s.Values, t.Values[i][j])
		}
		chart.Series = append(chart.Series, s)
	}
	return chart
}
