package predictor

import (
	"fmt"

	"branchsim/internal/counter"
)

// Bimodal is the classic Smith predictor: a table of 2-bit saturating
// counters indexed by branch PC. It captures per-branch bias and nothing
// else, and is the bias component of several hybrid predictors in this
// repository (2Bc-gskew, the multi-component hybrid).
type Bimodal struct {
	pht  *counter.Array2
	mask uint64
	name string
}

// NewBimodal returns a bimodal predictor with the given number of 2-bit
// counters (a power of two).
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("predictor: bimodal entries %d not a power of two", entries))
	}
	b := &Bimodal{
		pht:  counter.NewArray2(entries, counter.WeaklyNotTaken),
		mask: uint64(entries - 1),
	}
	b.name = fmt.Sprintf("bimodal-%s", budgetName(b.SizeBytes()))
	return b
}

// NewBimodalFromBudget returns the largest bimodal predictor fitting
// budgetBytes.
func NewBimodalFromBudget(budgetBytes int) *Bimodal {
	return NewBimodal(pow2Entries(budgetBytes, 2, 4))
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool {
	return b.pht.Taken(int(pcIndex(pc, b.mask)))
}

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	b.pht.Update(int(pcIndex(pc, b.mask)), taken)
}

// StepBatch implements BatchStepper: one fused read-modify-write of the
// PC-indexed counter per branch.
//
// Bit-identity is pinned by TestStepBatchEquivalence, zero allocations
// per batch by TestPredictorStepAllocs.
func (b *Bimodal) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	pht, mask := b.pht, b.mask
	for i, pc := range pcs {
		preds[i] = pht.PredictUpdate(int(pcIndex(pc, mask)), takens[i])
	}
}

// SizeBytes implements Predictor.
func (b *Bimodal) SizeBytes() int { return b.pht.SizeBytes() }

// Name implements Predictor.
func (b *Bimodal) Name() string { return b.name }

// Entries returns the PHT size, exposed for configuration reporting.
func (b *Bimodal) Entries() int { return b.pht.Len() }

// LargestTable implements DelayFootprint.
func (b *Bimodal) LargestTable() (int, int) { return b.pht.SizeBytes(), b.pht.Len() }
