package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// BiMode is the bi-mode predictor of Lee, Chen and Mudge (MICRO-30): a
// PC-indexed choice PHT steers each branch to one of two gshare-indexed
// direction PHTs, one biased taken and one biased not-taken, reducing
// destructive aliasing between branches of opposite bias. It is one of the
// predictors extended to large budgets in the paper's Figure 1.
type BiMode struct {
	choice  *counter.Array2
	taken   *counter.Array2
	notTkn  *counter.Array2
	ghr     *history.Global
	chMask  uint64
	dirMask uint64
	name    string
}

// NewBiMode returns a bi-mode predictor. dirEntries counters are allocated
// to each of the two direction PHTs and choiceEntries to the choice PHT;
// both must be powers of two.
func NewBiMode(choiceEntries, dirEntries int) *BiMode {
	if choiceEntries <= 0 || choiceEntries&(choiceEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: bi-mode choice entries %d not a power of two", choiceEntries))
	}
	if dirEntries <= 0 || dirEntries&(dirEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: bi-mode direction entries %d not a power of two", dirEntries))
	}
	b := &BiMode{
		choice: counter.NewArray2(choiceEntries, counter.WeaklyNotTaken),
		// Bias the direction PHTs toward their mode so cold entries
		// already disambiguate.
		taken:   counter.NewArray2(dirEntries, counter.WeaklyTaken),
		notTkn:  counter.NewArray2(dirEntries, counter.WeaklyNotTaken),
		ghr:     history.NewGlobal(log2(dirEntries)),
		chMask:  uint64(choiceEntries - 1),
		dirMask: uint64(dirEntries - 1),
	}
	b.name = fmt.Sprintf("bimode-%s", budgetName(b.SizeBytes()))
	return b
}

// NewBiModeFromBudget splits budgetBytes as the original paper does: a
// quarter to the choice PHT and three-eighths to each direction PHT
// (approximated with powers of two).
func NewBiModeFromBudget(budgetBytes int) *BiMode {
	dir := pow2Entries(budgetBytes/3, 2, 4)
	choice := pow2Entries(budgetBytes-2*(dir/4), 2, 4)
	// Keep choice no larger than the direction tables; tiny budgets
	// otherwise starve the direction PHTs.
	if choice > dir {
		choice = dir
	}
	return NewBiMode(choice, dir)
}

func (b *BiMode) dirIndex(pc uint64) int {
	return int((b.ghr.Value() ^ (pc >> 2)) & b.dirMask)
}

func (b *BiMode) parts(pc uint64) (choiceIdx, dirIdx int, useTaken bool) {
	choiceIdx = int(pcIndex(pc, b.chMask))
	dirIdx = b.dirIndex(pc)
	useTaken = b.choice.Taken(choiceIdx)
	return choiceIdx, dirIdx, useTaken
}

// Predict implements Predictor.
func (b *BiMode) Predict(pc uint64) bool {
	_, dirIdx, useTaken := b.parts(pc)
	if useTaken {
		return b.taken.Taken(dirIdx)
	}
	return b.notTkn.Taken(dirIdx)
}

// Update implements Predictor. The bi-mode update rule: the selected
// direction PHT always trains; the choice PHT trains toward the outcome
// except when it disagreed with the outcome but the selected bank still
// predicted correctly (the bank has the branch covered, so the choice is
// left alone to protect other branches sharing the entry).
func (b *BiMode) Update(pc uint64, taken bool) {
	choiceIdx, dirIdx, useTaken := b.parts(pc)
	var bankCorrect bool
	if useTaken {
		bankCorrect = b.taken.Taken(dirIdx) == taken
		b.taken.Update(dirIdx, taken)
	} else {
		bankCorrect = b.notTkn.Taken(dirIdx) == taken
		b.notTkn.Update(dirIdx, taken)
	}
	if !(useTaken != taken && bankCorrect) {
		b.choice.Update(choiceIdx, taken)
	}
	b.ghr.Push(taken)
}

// StepBatch implements BatchStepper. Predict followed by Update reads the
// choice PHT and the selected direction bank twice each (parts runs in
// both); the fused step reads each once, which is legal because neither
// table changes between the scalar pair's two reads: the selected bank's
// pre-update direction doubles as the prediction and as Update's
// bankCorrect, and the choice counter's direction is unchanged until its
// own conditional update.
//
//bplint:hotpath fused-sweep bi-mode lane; bit-identity pinned by TestStepBatchEquivalence
func (b *BiMode) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	for i, pc := range pcs {
		taken := takens[i]
		choiceIdx, dirIdx, useTaken := b.parts(pc)
		var pred bool
		if useTaken {
			pred = b.taken.PredictUpdate(dirIdx, taken)
		} else {
			pred = b.notTkn.PredictUpdate(dirIdx, taken)
		}
		if !(useTaken != taken && pred == taken) {
			b.choice.Update(choiceIdx, taken)
		}
		b.ghr.Push(taken)
		preds[i] = pred
	}
}

// SizeBytes implements Predictor.
func (b *BiMode) SizeBytes() int {
	return b.choice.SizeBytes() + b.taken.SizeBytes() + b.notTkn.SizeBytes() + b.ghr.SizeBytes()
}

// Name implements Predictor.
func (b *BiMode) Name() string { return b.name }

// LargestTable implements DelayFootprint: the direction PHTs dominate.
func (b *BiMode) LargestTable() (int, int) { return b.taken.SizeBytes(), b.taken.Len() }
