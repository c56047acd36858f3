package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// Perceptron implements the perceptron predictor of Jiménez and Lin (HPCA
// 2001 / ACM TOCS 2002) in the global-plus-local configuration the paper
// simulates (§4.1.1). Each table entry is a perceptron: a bias weight plus
// one signed weight per history bit. The prediction is the sign of the dot
// product of the weights with the history (outcomes as ±1); training bumps
// each weight toward agreement whenever the prediction was wrong or the
// output magnitude was below the threshold θ = ⌊1.93·h + 14⌋.
//
// Its strength is history length: h can far exceed log2(table entries), so
// it captures correlations dozens of branches back that PHT-indexed schemes
// cannot reach. Its weakness — central to the paper — is latency: the dot
// product is an adder tree as deep as a multiplier (§2.2), which we model as
// one extra cycle on top of the table access under the paper's optimistic
// assumption (§4.1.5).
//
// The weights are stored bit-sliced (counter.WeightPlanes): a row's hg+hl
// history weights are WeightBits 64-bit planes, lane i = history bit i,
// global bits first and then local. The dot product is then a few
// popcounts per plane and training a ripple-carry ±1 across the planes,
// bit-identical to the scalar per-weight loops.
type Perceptron struct {
	weights *counter.WeightPlanes // n rows of a bias and hg+hl weights
	lhist   *history.Local
	ghr     *history.Global
	n       int
	hg      uint
	hl      uint
	theta   int
	name    string
}

// PerceptronConfig sizes a perceptron predictor.
type PerceptronConfig struct {
	Entries     int  // number of perceptrons
	GlobalBits  uint // global history length
	LocalBits   uint // local history length (0 disables the local part)
	LocalTables int  // local history registers (power of two), if LocalBits > 0
	WeightBits  uint // signed weight width, 8 in the published design
}

// NewPerceptron returns a perceptron predictor with the given configuration.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Entries <= 0 {
		panic("predictor: perceptron needs at least one entry")
	}
	if cfg.WeightBits == 0 {
		cfg.WeightBits = 8
	}
	if cfg.GlobalBits == 0 || cfg.GlobalBits > history.MaxGlobalBits {
		panic(fmt.Sprintf("predictor: perceptron global history %d out of range", cfg.GlobalBits))
	}
	h := cfg.GlobalBits + cfg.LocalBits
	if h > 64 {
		panic(fmt.Sprintf("predictor: perceptron history of %d global + %d local bits exceeds the 64 weight lanes (config %+v)",
			cfg.GlobalBits, cfg.LocalBits, cfg))
	}
	p := &Perceptron{
		weights: counter.NewWeightPlanes(cfg.Entries, h, cfg.WeightBits),
		ghr:     history.NewGlobal(cfg.GlobalBits),
		n:       cfg.Entries,
		hg:      cfg.GlobalBits,
		hl:      cfg.LocalBits,
		theta:   int(1.93*float64(h)) + 14,
	}
	if cfg.LocalBits > 0 {
		if cfg.LocalTables == 0 {
			cfg.LocalTables = 1024
		}
		p.lhist = history.NewLocal(cfg.LocalTables, cfg.LocalBits)
	}
	p.name = fmt.Sprintf("perceptron-%s", budgetName(p.SizeBytes()))
	return p
}

// NewPerceptronFromBudget configures history lengths the way the published
// budget sweeps do — global history grows with budget up to the high 50s,
// with a 10-bit local component — and then fits as many perceptrons as the
// remaining budget allows.
func NewPerceptronFromBudget(budgetBytes int) *Perceptron {
	return NewPerceptron(perceptronBudgetConfig(budgetBytes))
}

// perceptronBudgetConfig is NewPerceptronFromBudget's configuration.
func perceptronBudgetConfig(budgetBytes int) PerceptronConfig {
	kb := budgetBytes / 1024
	var hg uint
	switch {
	case kb < 2:
		hg = 12
	case kb < 4:
		hg = 18
	case kb < 8:
		hg = 24
	case kb < 16:
		hg = 28
	case kb < 32:
		hg = 34
	case kb < 64:
		hg = 36
	case kb < 128:
		hg = 40
	case kb < 256:
		hg = 44
	case kb < 512:
		hg = 48
	default:
		hg = 52
	}
	var hl uint = 10
	if kb < 4 {
		hl = 0
	}
	localTables := 1024
	lhistBytes := localTables * int(hl) / 8
	perEntry := int(1 + hg + hl) // bytes, 8-bit weights
	entries := (budgetBytes - lhistBytes) / perEntry
	if entries < 8 {
		entries = 8
	}
	return PerceptronConfig{
		Entries:     entries,
		GlobalBits:  hg,
		LocalBits:   hl,
		LocalTables: localTables,
		WeightBits:  8,
	}
}

func (p *Perceptron) row(pc uint64) int {
	return int(hashPC(pc) % uint64(p.n))
}

// inputs returns the history as the weight lanes see it: the global
// history in lanes 0..hg-1 and the local history above it.
func (p *Perceptron) inputs(pc uint64) uint64 {
	x := p.ghr.Value()
	if p.hl > 0 {
		x |= p.lhist.Get(pc) << p.hg
	}
	return x
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool {
	return p.weights.Dot(p.row(pc), p.inputs(pc)) >= 0
}

// Update implements Predictor.
func (p *Perceptron) Update(pc uint64, taken bool) {
	row, x := p.row(pc), p.inputs(pc)
	p.train(pc, row, x, p.weights.Dot(row, x), taken)
}

// train applies the perceptron rule to the branch at pc, whose row, inputs
// and output are row, x and y, and advances the histories.
func (p *Perceptron) train(pc uint64, row int, x uint64, y int, taken bool) {
	if (y >= 0) != taken || y <= p.theta && y >= -p.theta {
		p.weights.Train(row, x, taken)
	}
	if p.hl > 0 {
		p.lhist.Push(pc, taken)
	}
	p.ghr.Push(taken)
}

// StepBatch implements BatchStepper: one dot product per branch, shared by
// the prediction and the training decision.
//
// Bit-identity is pinned by TestStepBatchEquivalence, zero allocations
// per batch by TestPredictorStepAllocs.
func (p *Perceptron) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	for i, pc := range pcs {
		row, x := p.row(pc), p.inputs(pc)
		y := p.weights.Dot(row, x)
		p.train(pc, row, x, y, takens[i])
		preds[i] = y >= 0
	}
}

// SizeBytes implements Predictor.
func (p *Perceptron) SizeBytes() int {
	size := p.weights.SizeBytes() + p.ghr.SizeBytes()
	if p.lhist != nil {
		size += p.lhist.SizeBytes()
	}
	return size
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// Entries returns the number of perceptrons.
func (p *Perceptron) Entries() int { return p.n }

// HistoryBits returns the global and local history lengths.
func (p *Perceptron) HistoryBits() (global, local uint) { return p.hg, p.hl }

// Theta returns the training threshold.
func (p *Perceptron) Theta() int { return p.theta }

// LargestTable implements DelayFootprint: the weight table. Its entries are
// perceptron rows, which are few but wide.
func (p *Perceptron) LargestTable() (int, int) { return p.weights.SizeBytes(), p.n }
