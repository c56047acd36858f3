package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// GSkew2Bc implements 2Bc-gskew, the predictor family of the Compaq Alpha
// EV8 front end (Seznec, Felix, Krishnan, Sazeides, ISCA 2002). Four equal
// banks of 2-bit counters:
//
//	BIM  — bimodal bank indexed by PC (branch bias)
//	G0   — gskew bank indexed by skewing hash H0(PC, history)
//	G1   — gskew bank indexed by skewing hash H1(PC, history)
//	META — chooser bank indexed by PC xor history
//
// The enhanced-gskew prediction is the majority of BIM, G0 and G1; META picks
// between that majority and BIM alone. The partial-update policy keeps banks
// that did not contribute to a correct prediction untouched, which is what
// lets the skewed banks de-alias each other.
type GSkew2Bc struct {
	bim     *counter.Array2
	g0      *counter.Array2
	g1      *counter.Array2
	meta    *counter.Array2
	ghr     *history.Global
	mask    uint64
	idxBits uint
	name    string
}

// NewGSkew2Bc returns a 2Bc-gskew predictor with four banks of bankEntries
// 2-bit counters each (bankEntries a power of two). History length follows
// the EV8 practice of exceeding the bank index width; here 2x index bits,
// capped at 64, folded into the skewing hashes.
func NewGSkew2Bc(bankEntries int) *GSkew2Bc {
	if bankEntries <= 0 || bankEntries&(bankEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: 2Bc-gskew bank entries %d not a power of two", bankEntries))
	}
	idxBits := log2(bankEntries)
	// History matches the bank index width: configuration sweeps (see
	// the package tests) show longer folded histories cost more in
	// context fragmentation than they gain in correlation reach for
	// banks of this size.
	histBits := idxBits
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	g := &GSkew2Bc{
		bim: counter.NewArray2(bankEntries, counter.WeaklyNotTaken),
		// The gskew banks start weakly taken: a cold majority then
		// leans toward the typical branch direction instead of
		// outvoting a trained bimodal bank with two cold entries.
		g0:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		g1:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		meta:    counter.NewArray2(bankEntries, counter.WeaklyTaken),
		ghr:     history.NewGlobal(histBits),
		mask:    uint64(bankEntries - 1),
		idxBits: idxBits,
	}
	g.name = fmt.Sprintf("2bcgskew-%s", budgetName(g.SizeBytes()))
	return g
}

// NewGSkew2BcFromBudget returns the largest 2Bc-gskew fitting budgetBytes
// (four banks of 2-bit counters).
func NewGSkew2BcFromBudget(budgetBytes int) *GSkew2Bc {
	return NewGSkew2Bc(pow2Entries(budgetBytes/4, 2, 4))
}

// fold reduces a value wider than the bank index to the index width by
// XOR-folding, the standard trick for using long histories with small banks.
func (g *GSkew2Bc) fold(v uint64) uint64 {
	folded := uint64(0)
	for v != 0 {
		folded ^= v & g.mask
		v >>= g.idxBits
	}
	return folded
}

func rotl64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// indices computes the four bank indices for a branch. The two gskew hashes
// must be decorrelated from each other and from the bimodal PC index so that
// two branches aliasing in one bank rarely alias in another; rotation by
// coprime amounts before folding achieves that with XOR-level hardware.
func (g *GSkew2Bc) indices(pc uint64) (bim, i0, i1, meta int) {
	p := pc >> 2
	h := g.ghr.Value()
	bim = int(p & g.mask)
	i0 = int(g.fold(p ^ h ^ rotl64(h, 7)))
	i1 = int(g.fold(p ^ rotl64(p, 5) ^ rotl64(h, 13)))
	// META is indexed by address alone: "does this branch need history"
	// is a per-branch property, and a history-fragmented META never
	// learns to fall back to the bimodal bank for cold contexts.
	meta = int(hashPC(pc) & g.mask)
	return bim, i0, i1, meta
}

// components returns the per-bank direction bits and the two candidate
// predictions.
func (g *GSkew2Bc) components(pc uint64) (bimT, g0T, g1T, useSkew, skewPred bool, ib, i0, i1, im int) {
	ib, i0, i1, im = g.indices(pc)
	bimT = g.bim.Taken(ib)
	g0T = g.g0.Taken(i0)
	g1T = g.g1.Taken(i1)
	useSkew = g.meta.Taken(im)
	skewPred = majority(bimT, g0T, g1T)
	return bimT, g0T, g1T, useSkew, skewPred, ib, i0, i1, im
}

func majority(a, b, c bool) bool {
	n := 0
	if a {
		n++
	}
	if b {
		n++
	}
	if c {
		n++
	}
	return n >= 2
}

// Predict implements Predictor.
func (g *GSkew2Bc) Predict(pc uint64) bool {
	bimT, _, _, useSkew, skewPred, _, _, _, _ := g.components(pc)
	if useSkew {
		return skewPred
	}
	return bimT
}

// Update implements Predictor, applying the published partial-update policy:
//
//   - On a correct prediction, strengthen only the banks that agreed with the
//     outcome and provided it (BIM alone when META chose BIM; the agreeing
//     majority banks when META chose e-gskew).
//   - On a misprediction, train all direction banks toward the outcome.
//   - META trains toward the e-gskew side whenever BIM and e-gskew disagree.
func (g *GSkew2Bc) Update(pc uint64, taken bool) {
	g.step(pc, taken)
}

// step is Update, returning the prediction Predict made for the branch.
func (g *GSkew2Bc) step(pc uint64, taken bool) bool {
	bimT, g0T, g1T, useSkew, skewPred, ib, i0, i1, im := g.components(pc)
	pred := bimT
	if useSkew {
		pred = skewPred
	}
	if pred == taken {
		if useSkew {
			if bimT == taken {
				g.bim.Update(ib, taken)
			}
			if g0T == taken {
				g.g0.Update(i0, taken)
			}
			if g1T == taken {
				g.g1.Update(i1, taken)
			}
		} else {
			g.bim.Update(ib, taken)
		}
	} else {
		g.bim.Update(ib, taken)
		g.g0.Update(i0, taken)
		g.g1.Update(i1, taken)
	}
	if bimT != skewPred {
		g.meta.Update(im, skewPred == taken)
	}
	g.ghr.Push(taken)
	return pred
}

// StepBatch implements BatchStepper: the four bank indices and reads once
// per branch, where Predict followed by Update computes them twice.
//
// Bit-identity is pinned by TestStepBatchEquivalence, zero allocations
// per batch by TestPredictorStepAllocs.
func (g *GSkew2Bc) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	for i, pc := range pcs {
		preds[i] = g.step(pc, takens[i])
	}
}

// SizeBytes implements Predictor.
func (g *GSkew2Bc) SizeBytes() int {
	return g.bim.SizeBytes() + g.g0.SizeBytes() + g.g1.SizeBytes() +
		g.meta.SizeBytes() + g.ghr.SizeBytes()
}

// Name implements Predictor.
func (g *GSkew2Bc) Name() string { return g.name }

// BankEntries returns the per-bank counter count.
func (g *GSkew2Bc) BankEntries() int { return g.bim.Len() }

// LargestTable implements DelayFootprint: the four banks are equal-sized.
func (g *GSkew2Bc) LargestTable() (int, int) { return g.bim.SizeBytes(), g.bim.Len() }

// NewGSkew2BcHist returns a 2Bc-gskew with an explicit history length,
// used by configuration sweeps.
func NewGSkew2BcHist(bankEntries int, histBits uint) *GSkew2Bc {
	g := NewGSkew2Bc(bankEntries)
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	g.ghr = history.NewGlobal(histBits)
	return g
}
