// Package experiments defines the paper's experiments — one per table and
// figure — on top of the predictors, workloads, delay model and simulators,
// and provides the shared predictor factory the command-line tools use.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"branchsim/internal/core"
	"branchsim/internal/delaymodel"
	"branchsim/internal/predictor"
)

// QuickEntries is the quick predictor size used by every overriding
// configuration: a 2K-entry gshare, the paper's optimistic assumption
// (§4.1.2; the delay model itself allows only 1K entries in one cycle).
const QuickEntries = 2048

// PredictorKinds lists the predictor names NewPredictor accepts.
func PredictorKinds() []string {
	kinds := make([]string, 0, len(factories))
	for k := range factories {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

var factories = map[string]func(budgetBytes int) predictor.Predictor{
	"bimodal":        func(b int) predictor.Predictor { return predictor.NewBimodalFromBudget(b) },
	"gshare":         func(b int) predictor.Predictor { return predictor.NewGShareFromBudget(b) },
	"gselect":        func(b int) predictor.Predictor { return predictor.NewGSelectFromBudget(b) },
	"bimode":         func(b int) predictor.Predictor { return predictor.NewBiModeFromBudget(b) },
	"local":          func(b int) predictor.Predictor { return predictor.NewLocalFromBudget(b) },
	"ev6":            func(b int) predictor.Predictor { return predictor.NewEV6FromBudget(b) },
	"2bcgskew":       func(b int) predictor.Predictor { return predictor.NewGSkew2BcFromBudget(b) },
	"multicomponent": func(b int) predictor.Predictor { return predictor.NewMultiComponentFromBudget(b) },
	"perceptron":     func(b int) predictor.Predictor { return predictor.NewPerceptronFromBudget(b) },
	"gshare.fast":    func(b int) predictor.Predictor { return NewGShareFast(b) },
	"bimode.fast":    func(b int) predictor.Predictor { return NewBiModeFast(b) },
	"yags":           func(b int) predictor.Predictor { return predictor.NewYAGSFromBudget(b) },
	"agree":          func(b int) predictor.Predictor { return predictor.NewAgreeFromBudget(b) },
	"taken":          func(int) predictor.Predictor { return predictor.Taken{} },
	"nottaken":       func(int) predictor.Predictor { return predictor.NotTaken{} },
}

// NewPredictor builds a predictor of the named kind sized to budgetBytes.
func NewPredictor(kind string, budgetBytes int) (predictor.Predictor, error) {
	f, ok := factories[strings.ToLower(kind)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown predictor %q (have %s)",
			kind, strings.Join(PredictorKinds(), ", "))
	}
	return f(budgetBytes), nil
}

// NewGShareFast builds a gshare.fast sized to budgetBytes with its PHT read
// latency taken from the delay model — the pipeline is exactly as deep as
// the table is slow.
func NewGShareFast(budgetBytes int) *core.GShareFast {
	entries := gshareFastEntries(budgetBytes)
	lat := delaymodel.Default.PHTReadCycles(entries)
	return core.New(core.Config{Entries: entries, Latency: lat})
}

// gshareFastEntries is the PHT size of NewGShareFast(budgetBytes): the
// largest power of two whose 2-bit counters fit in half the budget.
func gshareFastEntries(budgetBytes int) int {
	entries := 4
	for entries*2*2/8 <= budgetBytes {
		entries *= 2
	}
	return entries
}

// NewBiModeFast builds a pipelined bi-mode (the §5 reorganization) sized to
// budgetBytes with its direction-PHT read latency from the delay model.
func NewBiModeFast(budgetBytes int) *core.BiModeFast {
	dir := 4
	for dir*2*2*2/8 <= budgetBytes {
		dir *= 2
	}
	lat := delaymodel.Default.PHTReadCycles(dir)
	return core.NewBiModeFast(core.BiModeFastConfig{
		DirEntries:    dir,
		ChoiceEntries: 2048,
		Latency:       lat,
	})
}

// NewOverriding wraps the named slow predictor in the overriding
// organization behind a 2K-entry single-cycle quick gshare, with the slow
// latency from the delay model (Figure 2 and the right half of Figure 7).
func NewOverriding(kind string, budgetBytes int) (*core.Overriding, error) {
	slow, err := NewPredictor(kind, budgetBytes)
	if err != nil {
		return nil, err
	}
	lat := delaymodel.Default.ForPredictor(slow)
	quick := predictor.NewGShare(QuickEntries, 0)
	return core.NewOverriding(quick, slow, lat), nil
}

// PaperBudgets returns the hardware-budget sweep of Figures 5 and 7:
// 16 KB to 512 KB in powers of two.
func PaperBudgets() []int {
	return []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
}

// Figure1Budgets returns the wider sweep of Figure 1: 2 KB to 512 KB.
func Figure1Budgets() []int {
	return []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
		128 << 10, 256 << 10, 512 << 10}
}
