package core

import (
	"fmt"

	"branchsim/internal/predictor"
	"branchsim/internal/stats"
)

// Overriding composes a quick single-cycle predictor with a slow, accurate
// one, the delay-hiding organization of the Alpha EV6/EV7/EV8 front ends
// (§2.6.1). The quick predictor steers fetch immediately; when the slow
// predictor's answer arrives Latency cycles later and disagrees, the
// speculatively fetched instructions are squashed and fetch restarts down
// the slow predictor's path, costing a bubble of Latency-1 cycles (the
// paper's optimistic accounting: no extra squash or refetch time, §4.1.2).
//
// Functionally the organization predicts whatever the slow predictor says —
// that is the direction fetch ultimately follows — so Predict returns the
// slow prediction while recording whether an override occurred. The pair's
// own tally (OverrideRate, OverrideCount, LastOverrode) advances only when
// the pair itself is stepped: by funcsim, or by a clocked timing lane. For
// an unclocked pair (NeedsClock false), pipeline.RunMany steps the
// components once per batch, possibly for several lanes that share them,
// reads their prediction columns, and counts the overrides in its Result
// instead.
type Overriding struct {
	quick predictor.Predictor
	slow  predictor.Predictor
	// quickStep and slowStep are the components' batch steps
	// (BatchStepperOf), resolved once.
	quickStep predictor.BatchStepper
	slowStep  predictor.BatchStepper
	// Latency is the slow predictor's access delay in cycles. A latency
	// of 1 makes the organization ideal: the slow predictor answers
	// immediately and the quick predictor is irrelevant.
	latency int

	overrides stats.Rate
	lastQuick bool
	lastSlow  bool
	name      string
}

// NewOverriding returns an overriding organization. latency is the slow
// predictor's access delay in cycles and must be at least 1.
func NewOverriding(quick, slow predictor.Predictor, latency int) *Overriding {
	if latency < 1 {
		panic(fmt.Sprintf("core: overriding latency %d must be >= 1", latency))
	}
	return &Overriding{
		quick:     quick,
		slow:      slow,
		quickStep: BatchStepperOf(quick),
		slowStep:  BatchStepperOf(slow),
		latency:   latency,
		name:      fmt.Sprintf("override(%s->%s,lat=%d)", quick.Name(), slow.Name(), latency),
	}
}

// Predict implements predictor.Predictor. It consults both predictors,
// records whether the slow one overrode the quick one, and returns the slow
// prediction (the direction fetch ends up following).
func (o *Overriding) Predict(pc uint64) bool {
	o.lastQuick = o.quick.Predict(pc)
	o.lastSlow = o.slow.Predict(pc)
	o.overrides.Add(o.lastQuick != o.lastSlow && o.latency > 1)
	return o.lastSlow
}

// LastOverrode reports whether the most recent Predict or batch step
// resulted in an override (quick and slow disagreed with a multi-cycle slow
// predictor), and the bubble cost in cycles if so: the per-branch form of
// the override a scalar driver, such as the timing engine's test-only
// reference, charges after each Predict.
func (o *Overriding) LastOverrode() (overrode bool, bubbleCycles int) {
	if o.lastQuick != o.lastSlow && o.latency > 1 {
		return true, o.latency - 1
	}
	return false, 0
}

// Update implements predictor.Predictor, training both component predictors.
func (o *Overriding) Update(pc uint64, taken bool) {
	o.quick.Update(pc, taken)
	o.slow.Update(pc, taken)
}

// SizeBytes implements predictor.Predictor. Only the slow predictor counts
// against the paper's hardware budgets; the 2K-entry quick predictor is
// accounted separately, as the paper's budget axis refers to the complex
// predictor. QuickSizeBytes exposes the rest.
func (o *Overriding) SizeBytes() int { return o.slow.SizeBytes() }

// QuickSizeBytes returns the quick predictor's state size.
func (o *Overriding) QuickSizeBytes() int { return o.quick.SizeBytes() }

// Name implements predictor.Predictor.
func (o *Overriding) Name() string { return o.name }

// Latency returns the slow predictor's access delay in cycles.
func (o *Overriding) Latency() int { return o.latency }

// OverrideRate returns the fraction of predictions on which the slow
// predictor overrode the quick one — the quantity §4.5 blames for the
// realistic-IPC collapse (7.38% average for the perceptron predictor; 18.1%
// on 300.twolf for the multi-component predictor).
func (o *Overriding) OverrideRate() float64 { return o.overrides.Value() }

// OverrideCount returns the raw override and prediction counts.
func (o *Overriding) OverrideCount() (overrides, predictions int64) {
	return o.overrides.Events, o.overrides.Total
}

// Quick returns the quick component.
func (o *Overriding) Quick() predictor.Predictor { return o.quick }

// Slow returns the slow component.
func (o *Overriding) Slow() predictor.Predictor { return o.slow }

// OnCycle forwards the fetch clock to cycle-aware components.
func (o *Overriding) OnCycle(cycle uint64) {
	if c, ok := o.quick.(predictor.CycleAware); ok {
		c.OnCycle(cycle)
	}
	if c, ok := o.slow.(predictor.CycleAware); ok {
		c.OnCycle(cycle)
	}
}

// StepBatch implements predictor.BatchStepper: StepBatchOverrides without
// the override column.
func (o *Overriding) StepBatch(pcs []uint64, takens []bool, cycles []uint64, preds []bool) {
	o.StepBatchOverrides(pcs, takens, cycles, preds, nil)
}

// overrideChunk is the number of branches StepBatchOverrides steps per
// component call: the quick predictions of one chunk fit one word.
const overrideChunk = 64

// StepBatchOverrides is the batch form of the OnCycle/Predict/Update/
// LastOverrode sequence per branch: it steps the quick and the slow
// component through the batch with their own batch steps, handing both the
// cycle column, writes the slow predictions to preds and, when overrode is
// non-nil, whether each branch was overridden (quick ≠ slow with a
// multi-cycle slow predictor). The override tally and LastOverrode end
// exactly where the scalar protocol leaves them. The components share no
// state, so stepping one through the batch before the other is the
// per-branch interleave reordered. Each chunk's quick predictions are held
// as one word's bits, so the step needs no scratch column.
func (o *Overriding) StepBatchOverrides(pcs []uint64, takens []bool, cycles []uint64, preds, overrode []bool) {
	multiCycle := o.latency > 1
	var events int64
	for lo := 0; lo < len(pcs); lo += overrideChunk {
		hi := min(lo+overrideChunk, len(pcs))
		var cyc []uint64
		if cycles != nil {
			cyc = cycles[lo:hi]
		}
		p := preds[lo:hi]
		o.quickStep.StepBatch(pcs[lo:hi], takens[lo:hi], cyc, p)
		var qbits uint64
		for i, q := range p {
			if q {
				qbits |= 1 << i
			}
		}
		o.slowStep.StepBatch(pcs[lo:hi], takens[lo:hi], cyc, p)
		for i, s := range p {
			q := qbits>>i&1 == 1
			ov := multiCycle && q != s
			if ov {
				events++
			}
			if overrode != nil {
				overrode[lo+i] = ov
			}
		}
		o.lastQuick, o.lastSlow = qbits>>(len(p)-1)&1 == 1, p[len(p)-1]
	}
	o.overrides.AddN(events, int64(len(pcs)))
}

// BatchStepperOf is the engines' one stepper resolver: p's own
// predictor.BatchStepper, or for a kind with none — gselect, local, ev6,
// yags, agree, the static kinds, a user predictor — a per-branch adapter
// that announces each branch's cycle to a cycle-aware p and runs one
// Predict/Update pair.
func BatchStepperOf(p predictor.Predictor) predictor.BatchStepper {
	if s, ok := p.(predictor.BatchStepper); ok {
		return s
	}
	ca, _ := p.(predictor.CycleAware)
	return perBranch{p: p, clock: ca}
}

// perBranch is BatchStepperOf's adapter for a predictor with no batch step
// of its own; clock is p when p is cycle-aware, else nil.
type perBranch struct {
	p     predictor.Predictor
	clock predictor.CycleAware
}

// StepBatch implements predictor.BatchStepper by its definition.
func (s perBranch) StepBatch(pcs []uint64, takens []bool, cycles []uint64, preds []bool) {
	for i, pc := range pcs {
		if cycles != nil && s.clock != nil {
			s.clock.OnCycle(cycles[i])
		}
		preds[i] = s.p.Predict(pc)
		s.p.Update(pc, takens[i])
	}
}

// NeedsClock reports whether p's predictions depend on the fetch clock: p
// is cycle-aware, or an overriding pair with a cycle-aware component. The
// timing engine steps such a lane one branch at a time, at the branch's
// fetch cycle; every other lane steps once per batch with no cycle column.
func NeedsClock(p predictor.Predictor) bool {
	if o, ok := p.(*Overriding); ok {
		return NeedsClock(o.quick) || NeedsClock(o.slow)
	}
	_, ok := p.(predictor.CycleAware)
	return ok
}
