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
// always one cycle). It declares no cells and builds no predictor: the
// latencies come from the delay model over each kind's footprint, derived
// from its budget configuration.
func table2(*cellPlan) func() *Outcome { return table2Outcome }

// table2Kinds are Table 2's complex predictors, each with the delay-model
// Spec of its factory predictor at a budget.
var table2Kinds = []struct {
	name string
	spec func(budgetBytes int) delaymodel.Spec
}{
	{"multicomponent", delaymodel.MultiComponentSpec},
	{"2bcgskew", delaymodel.GSkew2BcSpec},
	{"perceptron", delaymodel.PerceptronSpec},
}

// table2Row is Table 2's row at budget: each complex kind's latency, then
// gshare.fast's PHT read and effective latencies.
func table2Row(budget int) []float64 {
	row := make([]float64, 0, len(table2Kinds)+2)
	for _, k := range table2Kinds {
		row = append(row, float64(delaymodel.Default.Cycles(k.spec(budget))))
	}
	pht := delaymodel.Default.PHTReadCycles(gshareFastEntries(budget))
	return append(row, float64(pht), 1) // gshare.fast's effective latency is one cycle
}

// table2Outcome renders Table 2.
func table2Outcome() *Outcome {
	budgets := PaperBudgets()
	kinds := make([]string, len(table2Kinds))
	for j, k := range table2Kinds {
		kinds[j] = k.name
	}
	rows := make([]string, len(budgets))
	values := make([][]float64, len(budgets))
	for i, b := range budgets {
		rows[i] = budgetLabel(b)
		values[i] = table2Row(b)
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
