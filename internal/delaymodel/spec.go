package delaymodel

import (
	"branchsim/internal/core"
	"branchsim/internal/predictor"
)

// QuickPredictorMaxEntries is the largest quick predictor the paper grants a
// single cycle: 2K entries, one doubling beyond the 1K-entry limit of the
// delay model, an explicitly optimistic assumption (§4.1.2).
const QuickPredictorMaxEntries = 2048

// ForPredictor returns the access latency in cycles of a concrete predictor
// under the paper's per-organization delay recipes. Predictors the model
// does not recognize fall back to a single-table estimate of their total
// size, which over-penalizes multi-bank designs — register new kinds here
// instead of relying on it.
func (m Model) ForPredictor(p predictor.Predictor) int {
	switch v := p.(type) {
	case *core.GShareFast:
		// Pipelined: the effective prediction latency is one cycle by
		// construction (§3.1). PHTReadCycles reports the hidden depth.
		return 1
	case *core.BiModeFast:
		// Also pipelined (§5 reorganization).
		return 1
	case *predictor.YAGS:
		return m.Cycles(banked(v.LargestTable()))
	case *predictor.Perceptron:
		return m.Cycles(perceptron(v.LargestTable()))
	case *predictor.MultiComponent:
		return m.Cycles(multiTable(v.LargestTable()))
	case *predictor.GSkew2Bc:
		return m.Cycles(banked(v.LargestTable()))
	case *predictor.EV6:
		return m.Cycles(multiTable(v.LargestTable()))
	case *predictor.BiMode:
		return m.Cycles(banked(v.LargestTable()))
	case predictor.DelayFootprint:
		return m.Cycles(singleTable(v.LargestTable()))
	default:
		return m.Cycles(singleTable(p.SizeBytes(), p.SizeBytes()*4))
	}
}

// MultiComponentSpec, GSkew2BcSpec and PerceptronSpec are the Specs
// ForPredictor prices the predictors the FromBudget constructors build at
// budgetBytes, derived from the budget without building them: the same
// recipe over the same footprint formula.
func MultiComponentSpec(budgetBytes int) Spec {
	return multiTable(predictor.MultiComponentFootprint(budgetBytes))
}

// GSkew2BcSpec is MultiComponentSpec for 2Bc-gskew.
func GSkew2BcSpec(budgetBytes int) Spec { return banked(predictor.GSkew2BcFootprint(budgetBytes)) }

// PerceptronSpec is MultiComponentSpec for the perceptron.
func PerceptronSpec(budgetBytes int) Spec {
	return perceptron(predictor.PerceptronFootprint(budgetBytes))
}

// The recipes of a largest table of the given bytes and entries.
func singleTable(bytes, entries int) Spec { return Spec{KindSingleTable, bytes, entries} }
func banked(bytes, entries int) Spec      { return Spec{KindBanked, bytes, entries} }
func multiTable(bytes, entries int) Spec  { return Spec{KindMultiTable, bytes, entries} }
func perceptron(bytes, entries int) Spec  { return Spec{KindPerceptron, bytes, entries} }

// PHTReadCycles returns the raw read latency of a PHT with the given number
// of 2-bit counters — the latency gshare.fast must pipeline over (its
// Config.Latency) and the latency a naive unpipelined gshare would expose.
func (m Model) PHTReadCycles(entries int) int {
	return m.TableCycles(entries*2/8, entries)
}
