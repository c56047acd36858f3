package experiments

import (
	"fmt"

	"branchsim/internal/delaymodel"
	"branchsim/internal/textplot"
)

// table2 reproduces the paper's Table 2: access latencies, in cycles at the
// 8-FO4 clock, of the multi-component hybrid, 2Bc-gskew and perceptron
// predictors across hardware budgets — plus, for context, the raw PHT read
// latency gshare.fast pipelines over (its effective prediction latency is
// always one cycle). It declares no cells: the latencies come from the
// delay model alone.
func table2(*cellPlan) func() *Outcome { return table2Outcome }

// table2Outcome renders Table 2.
func table2Outcome() *Outcome {
	budgets := PaperBudgets()
	kinds := []string{"multicomponent", "2bcgskew", "perceptron"}
	rows := make([]string, len(budgets))
	values := make([][]float64, len(budgets))
	for i, b := range budgets {
		rows[i] = budgetLabel(b)
		values[i] = make([]float64, len(kinds)+2)
		for j, kind := range kinds {
			p := mustPredictor(kind, b)
			values[i][j] = float64(delaymodel.Default.ForPredictor(p))
		}
		g := NewGShareFast(b)
		values[i][len(kinds)] = float64(g.Latency())
		values[i][len(kinds)+1] = 1 // gshare.fast effective latency
	}
	t := &textplot.Table{
		Title:     "Table 2: predictor access latencies (cycles at 8 FO4)",
		RowHeader: "budget",
		Rows:      rows,
		Cols:      append(append([]string{}, kinds...), "gshare.fast(PHT read)", "gshare.fast(effective)"),
		Values:    values,
		Format:    "%6.0f",
	}
	single := delaymodel.Default.SingleCycleEntries()
	return &Outcome{
		ID:     "table2",
		Title:  "Predictor access latencies from the delay model",
		Tables: []*textplot.Table{t},
		Notes: []string{
			fmt.Sprintf("largest single-cycle PHT: %d entries (paper anchor: 1K entries at 8 FO4)", single),
			"latencies grow from 2-4 cycles at 16KB toward ~9-11 cycles at 512KB, the paper's range",
		},
	}
}
