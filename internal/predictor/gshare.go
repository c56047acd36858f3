package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// GShare is McFarling's gshare predictor: a PHT of 2-bit counters indexed by
// the XOR of the global branch history and the branch PC. With history length
// equal to log2(entries) it uses the maximum history the table can hold,
// which is the configuration the paper gives gshare.fast (§4.1.4).
type GShare struct {
	pht     *counter.Array2
	ghr     *history.Global
	idxMask uint64
	name    string
}

// NewGShare returns a gshare predictor with the given PHT entry count (a
// power of two) and history length. A historyBits of 0 selects the maximum,
// log2(entries).
func NewGShare(entries int, historyBits uint) *GShare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("predictor: gshare entries %d not a power of two", entries))
	}
	idxBits := log2(entries)
	if historyBits == 0 {
		historyBits = idxBits
	}
	if historyBits > history.MaxGlobalBits {
		historyBits = history.MaxGlobalBits
	}
	g := &GShare{
		pht:     counter.NewArray2(entries, counter.WeaklyNotTaken),
		ghr:     history.NewGlobal(historyBits),
		idxMask: uint64(entries - 1),
	}
	g.name = fmt.Sprintf("gshare-%s", budgetName(g.SizeBytes()))
	return g
}

// NewGShareFromBudget returns the largest maximum-history gshare fitting
// budgetBytes.
func NewGShareFromBudget(budgetBytes int) *GShare {
	return NewGShare(pow2Entries(budgetBytes, 2, 4), 0)
}

func (g *GShare) index(pc uint64) int {
	return int((g.ghr.Value() ^ (pc >> 2)) & g.idxMask)
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool {
	return g.pht.Taken(g.index(pc))
}

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	g.pht.Update(g.index(pc), taken)
	g.ghr.Push(taken)
}

// StepBatch implements BatchStepper: the Predict/Update pair per branch,
// with the index computed once and the PHT word read and written once
// (counter.Array2.PredictUpdate).
//
// Bit-identity is pinned by TestStepBatchEquivalence, zero allocations
// per batch by TestPredictorStepAllocs.
func (g *GShare) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	pht, ghr, mask := g.pht, g.ghr, g.idxMask
	for i, pc := range pcs {
		taken := takens[i]
		idx := int((ghr.Value() ^ (pc >> 2)) & mask)
		preds[i] = pht.PredictUpdate(idx, taken)
		ghr.Push(taken)
	}
}

// SizeBytes implements Predictor.
func (g *GShare) SizeBytes() int { return g.pht.SizeBytes() + g.ghr.SizeBytes() }

// Name implements Predictor.
func (g *GShare) Name() string { return g.name }

// Entries returns the PHT size.
func (g *GShare) Entries() int { return g.pht.Len() }

// HistoryBits returns the global history length in use.
func (g *GShare) HistoryBits() uint { return g.ghr.Len() }

// GSelect is the gselect predictor: the PHT index concatenates low PC bits
// with global history bits instead of XORing them. It is included as the
// classic point of comparison for index-construction studies.
type GSelect struct {
	pht      *counter.Array2
	ghr      *history.Global
	pcBits   uint
	histBits uint
	name     string
}

// NewGSelect returns a gselect predictor with 2^(pcBits+histBits) counters.
func NewGSelect(pcBits, histBits uint) *GSelect {
	if pcBits == 0 || histBits == 0 || pcBits+histBits > 30 {
		panic(fmt.Sprintf("predictor: invalid gselect split pc=%d hist=%d", pcBits, histBits))
	}
	entries := 1 << (pcBits + histBits)
	g := &GSelect{
		pht:      counter.NewArray2(entries, counter.WeaklyNotTaken),
		ghr:      history.NewGlobal(histBits),
		pcBits:   pcBits,
		histBits: histBits,
	}
	g.name = fmt.Sprintf("gselect-%s", budgetName(g.SizeBytes()))
	return g
}

// NewGSelectFromBudget returns a gselect splitting the index evenly between
// PC and history bits within budgetBytes.
func NewGSelectFromBudget(budgetBytes int) *GSelect {
	entries := pow2Entries(budgetBytes, 2, 16)
	idxBits := log2(entries)
	h := idxBits / 2
	return NewGSelect(idxBits-h, h)
}

func (g *GSelect) index(pc uint64) int {
	pcPart := (pc >> 2) & (1<<g.pcBits - 1)
	histPart := g.ghr.Value() & (1<<g.histBits - 1)
	return int(pcPart<<g.histBits | histPart)
}

// Predict implements Predictor.
func (g *GSelect) Predict(pc uint64) bool { return g.pht.Taken(g.index(pc)) }

// Update implements Predictor.
func (g *GSelect) Update(pc uint64, taken bool) {
	g.pht.Update(g.index(pc), taken)
	g.ghr.Push(taken)
}

// SizeBytes implements Predictor.
func (g *GSelect) SizeBytes() int { return g.pht.SizeBytes() + g.ghr.SizeBytes() }

// Name implements Predictor.
func (g *GSelect) Name() string { return g.name }

// LargestTable implements DelayFootprint.
func (g *GShare) LargestTable() (int, int) { return g.pht.SizeBytes(), g.pht.Len() }

// LargestTable implements DelayFootprint.
func (g *GSelect) LargestTable() (int, int) { return g.pht.SizeBytes(), g.pht.Len() }
