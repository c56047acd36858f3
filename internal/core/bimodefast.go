package core

import (
	"fmt"

	"branchsim/internal/counter"
)

// BiModeFast applies the gshare.fast pipelining (§3) to the bi-mode
// predictor — the kind of reorganization the paper's conclusion proposes
// studying (§5). Both direction PHTs are indexed identically by
// history-plus-low-PC-bits, so a single FastPipe prefetches the matching
// rows of both banks during the multi-cycle read; the PC-indexed choice
// table is kept small enough (at most the single-cycle limit) to read in
// the final stage alongside the buffer select. The result keeps bi-mode's
// destructive-aliasing reduction while delivering every prediction in one
// cycle.
type BiModeFast struct {
	FastPipe
	taken  *counter.Array2
	notTkn *counter.Array2
	choice *counter.Array2
	chMask uint64
	name   string
}

// BiModeFastConfig sizes a BiModeFast.
type BiModeFastConfig struct {
	// DirEntries is each direction PHT's size in 2-bit counters (a
	// power of two).
	DirEntries int
	// ChoiceEntries is the PC-indexed choice PHT's size; it must stay
	// within the single-cycle limit (1K entries by the paper's delay
	// anchor; 2K with the paper's optimistic allowance).
	ChoiceEntries int
	// Latency is the direction PHTs' read latency in cycles.
	Latency int
}

// NewBiModeFast returns a pipelined bi-mode predictor.
func NewBiModeFast(cfg BiModeFastConfig) *BiModeFast {
	if cfg.DirEntries <= 0 || cfg.DirEntries&(cfg.DirEntries-1) != 0 {
		panic(fmt.Sprintf("core: bimode.fast direction entries %d not a power of two", cfg.DirEntries))
	}
	if cfg.ChoiceEntries <= 0 || cfg.ChoiceEntries&(cfg.ChoiceEntries-1) != 0 {
		panic(fmt.Sprintf("core: bimode.fast choice entries %d not a power of two", cfg.ChoiceEntries))
	}
	if cfg.ChoiceEntries > 2048 {
		panic("core: bimode.fast choice table exceeds the single-cycle limit")
	}
	b := &BiModeFast{
		FastPipe: NewFastPipe(log2(cfg.DirEntries), cfg.Latency, 0),
		taken:    counter.NewArray2(cfg.DirEntries, counter.WeaklyTaken),
		notTkn:   counter.NewArray2(cfg.DirEntries, counter.WeaklyNotTaken),
		choice:   counter.NewArray2(cfg.ChoiceEntries, counter.WeaklyNotTaken),
		chMask:   uint64(cfg.ChoiceEntries - 1),
	}
	b.name = fmt.Sprintf("bimode.fast-%s", budgetName(b.SizeBytes()))
	return b
}

func (b *BiModeFast) parts(pc uint64) (choiceIdx, dirIdx int, useTaken bool) {
	choiceIdx = int((pc >> 2) & b.chMask)
	dirIdx = b.Index(pc)
	useTaken = b.choice.Taken(choiceIdx)
	return choiceIdx, dirIdx, useTaken
}

// Predict implements predictor.Predictor.
func (b *BiModeFast) Predict(pc uint64) bool {
	_, dirIdx, useTaken := b.parts(pc)
	if useTaken {
		return b.taken.Taken(dirIdx)
	}
	return b.notTkn.Taken(dirIdx)
}

// Update implements predictor.Predictor.
func (b *BiModeFast) Update(pc uint64, taken bool) { b.step(pc, taken) }

// StepBatch implements predictor.BatchStepper: each branch's indices and
// bank read are computed once, for the prediction and the training.
//
//bplint:hotpath bimode.fast lane of both engines; bit-identity pinned by FuzzStepVsReference
func (b *BiModeFast) StepBatch(pcs []uint64, takens []bool, cycles []uint64, preds []bool) {
	for i, pc := range pcs {
		b.clockAt(cycles, i)
		preds[i] = b.step(pc, takens[i])
	}
}

// step predicts the branch at pc, trains it with the bi-mode partial-update
// rule (see predictor.BiMode) and pushes its outcome; it returns the
// prediction.
func (b *BiModeFast) step(pc uint64, taken bool) bool {
	choiceIdx, dirIdx, useTaken := b.parts(pc)
	bank := b.notTkn
	if useTaken {
		bank = b.taken
	}
	pred := bank.Taken(dirIdx)
	bank.Update(dirIdx, taken)
	if !(useTaken != taken && pred == taken) {
		b.choice.Update(choiceIdx, taken)
	}
	b.Push(taken)
	return pred
}

// SizeBytes implements predictor.Predictor.
func (b *BiModeFast) SizeBytes() int {
	return b.taken.SizeBytes() + b.notTkn.SizeBytes() + b.choice.SizeBytes() +
		b.HistorySizeBytes() + 2*b.BufferStateBytes()
}

// Name implements predictor.Predictor.
func (b *BiModeFast) Name() string { return b.name }

// LargestTable implements predictor.DelayFootprint.
func (b *BiModeFast) LargestTable() (int, int) {
	return b.taken.SizeBytes(), b.taken.Len()
}
