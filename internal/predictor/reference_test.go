package predictor

import (
	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// This file holds the test-only naive references of the three heavy
// predictors: the textbook formulation of each, one weight at a time and
// one history fold per lookup, with no incremental state beyond the
// history registers themselves. The engines (Perceptron, MultiComponent,
// GSkew2Bc) keep bit-sliced weights, incrementally folded histories and
// one-pass batch steppers; they must predict exactly as these do, which
// FuzzPredictorVsReference and TestHeavyPredictorsMatchReference enforce.

// refPredictor is the protocol half of Predictor the references implement.
type refPredictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// refPerceptron is the global+local perceptron of Jiménez and Lin with one
// saturating int per weight: a bias plus hg global and hl local weights per
// row, the dot product and the training rule each a loop over the row.
type refPerceptron struct {
	w        []int // n × (1+hg+hl), row-major
	min, max int
	lhist    *history.Local
	ghr      *history.Global
	n        int
	hg, hl   uint
	theta    int
}

func newRefPerceptron(cfg PerceptronConfig) *refPerceptron {
	if cfg.WeightBits == 0 {
		cfg.WeightBits = 8
	}
	h := cfg.GlobalBits + cfg.LocalBits
	max := 1<<(cfg.WeightBits-1) - 1
	p := &refPerceptron{
		w:     make([]int, cfg.Entries*int(1+h)),
		min:   -max - 1,
		max:   max,
		ghr:   history.NewGlobal(cfg.GlobalBits),
		n:     cfg.Entries,
		hg:    cfg.GlobalBits,
		hl:    cfg.LocalBits,
		theta: int(1.93*float64(h)) + 14,
	}
	if cfg.LocalBits > 0 {
		if cfg.LocalTables == 0 {
			cfg.LocalTables = 1024
		}
		p.lhist = history.NewLocal(cfg.LocalTables, cfg.LocalBits)
	}
	return p
}

// inputs returns the row's inputs as ±1: global history bits, then local.
func (p *refPerceptron) inputs(pc uint64) []int {
	x := make([]int, 0, p.hg+p.hl)
	g := p.ghr.Value()
	for i := uint(0); i < p.hg; i++ {
		x = append(x, 2*int(g>>i&1)-1)
	}
	if p.hl > 0 {
		l := p.lhist.Get(pc)
		for i := uint(0); i < p.hl; i++ {
			x = append(x, 2*int(l>>i&1)-1)
		}
	}
	return x
}

func (p *refPerceptron) output(pc uint64) (y, base int, x []int) {
	base = int(hashPC(pc)%uint64(p.n)) * int(1+p.hg+p.hl)
	x = p.inputs(pc)
	y = p.w[base]
	for i, xi := range x {
		y += p.w[base+1+i] * xi
	}
	return y, base, x
}

func (p *refPerceptron) add(i, d int) {
	p.w[i] = min(max(p.w[i]+d, p.min), p.max)
}

func (p *refPerceptron) Predict(pc uint64) bool {
	y, _, _ := p.output(pc)
	return y >= 0
}

func (p *refPerceptron) Update(pc uint64, taken bool) {
	y, base, x := p.output(pc)
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if (y >= 0) != taken || mag <= p.theta {
		t := -1
		if taken {
			t = 1
		}
		p.add(base, t)
		for i, xi := range x {
			p.add(base+1+i, t*xi)
		}
	}
	if p.hl > 0 {
		p.lhist.Push(pc, taken)
	}
	p.ghr.Push(taken)
}

// refMultiComponent is Evers' multi-component hybrid with every component
// index re-folded from the global history register on every lookup and the
// per-source predictions gathered into a slice.
type refMultiComponent struct {
	bimodal    *counter.Array2
	bimMask    uint64
	components []refMCComponent
	localPHT   *counter.Array2
	localHist  *history.Local
	selector   []*counter.ArrayN
	selMask    uint64
	ghr        *history.Global
}

type refMCComponent struct {
	pht      *counter.Array2
	histBits uint
	mask     uint64
	idxBits  uint
}

// index XOR-folds the PC and the component's history slice down to the
// table index width, chunk by chunk.
func (c *refMCComponent) index(pc uint64, hist uint64) int {
	h := hist
	if c.histBits < 64 {
		h &= 1<<c.histBits - 1
	}
	v := pc >> 2
	folded := v & c.mask
	v >>= c.idxBits
	folded ^= v & c.mask
	for h != 0 {
		folded ^= h & c.mask
		h >>= c.idxBits
	}
	return int(folded)
}

func newRefMultiComponent(cfg MCConfig) *refMultiComponent {
	maxHist := cfg.HistoryLengths[len(cfg.HistoryLengths)-1]
	m := &refMultiComponent{
		bimodal: counter.NewArray2(cfg.BimodalEntries, counter.WeaklyNotTaken),
		bimMask: uint64(cfg.BimodalEntries - 1),
		selMask: uint64(cfg.SelectorEntries - 1),
		ghr:     history.NewGlobal(maxHist),
	}
	for _, h := range cfg.HistoryLengths {
		m.components = append(m.components, refMCComponent{
			pht:      counter.NewArray2(cfg.ComponentEntries, counter.WeaklyNotTaken),
			histBits: h,
			mask:     uint64(cfg.ComponentEntries - 1),
			idxBits:  log2(cfg.ComponentEntries),
		})
	}
	sources := len(m.components) + 1
	if cfg.LocalHistories > 0 && cfg.LocalBits > 0 {
		m.localPHT = counter.NewArray2(1<<cfg.LocalBits, counter.WeaklyNotTaken)
		m.localHist = history.NewLocal(cfg.LocalHistories, cfg.LocalBits)
		sources++
	}
	for i := 0; i < sources-1; i++ {
		m.selector = append(m.selector, counter.NewArrayN(cfg.SelectorEntries, 2, 2))
	}
	m.selector = append(m.selector, counter.NewArrayN(cfg.SelectorEntries, 2, 3))
	return m
}

func (m *refMultiComponent) predictions(pc uint64) (preds []bool, chosen int) {
	hist := m.ghr.Value()
	preds = make([]bool, len(m.selector))
	for i, c := range m.components {
		preds[i] = c.pht.Taken(c.index(pc, hist))
	}
	if m.localPHT != nil {
		preds[len(m.components)] = m.localPHT.Taken(int(m.localHist.Get(pc)))
	}
	bim := len(preds) - 1
	preds[bim] = m.bimodal.Taken(int(pcIndex(pc, m.bimMask)))
	sel := int(pcIndex(pc, m.selMask))
	best, bestConf := bim, m.selector[bim].Get(sel)
	for i := 0; i < bim; i++ {
		if conf := m.selector[i].Get(sel); conf > bestConf {
			best, bestConf = i, conf
		}
	}
	return preds, best
}

func (m *refMultiComponent) Predict(pc uint64) bool {
	preds, chosen := m.predictions(pc)
	return preds[chosen]
}

func (m *refMultiComponent) Update(pc uint64, taken bool) {
	preds, chosen := m.predictions(pc)
	chosenCorrect := preds[chosen] == taken
	sel := int(pcIndex(pc, m.selMask))
	for i, pred := range preds {
		correct := pred == taken
		switch {
		case i == chosen && !chosenCorrect:
			m.selector[i].Update(sel, false)
		case i != chosen && chosenCorrect && !correct:
			m.selector[i].Update(sel, false)
		case i != chosen && !chosenCorrect && correct:
			m.selector[i].Update(sel, true)
		}
	}
	hist := m.ghr.Value()
	for _, c := range m.components {
		c.pht.Update(c.index(pc, hist), taken)
	}
	if m.localPHT != nil {
		m.localPHT.Update(int(m.localHist.Get(pc)), taken)
		m.localHist.Push(pc, taken)
	}
	m.bimodal.Update(int(pcIndex(pc, m.bimMask)), taken)
	m.ghr.Push(taken)
}

// refGSkew2Bc is 2Bc-gskew with the four bank indices and the four bank
// reads recomputed by Predict and again by Update.
type refGSkew2Bc struct {
	bim, g0, g1, meta *counter.Array2
	ghr               *history.Global
	mask              uint64
	idxBits           uint
}

func newRefGSkew2Bc(bankEntries int, histBits uint) *refGSkew2Bc {
	return &refGSkew2Bc{
		bim:     counter.NewArray2(bankEntries, counter.WeaklyNotTaken),
		g0:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		g1:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		meta:    counter.NewArray2(bankEntries, counter.WeaklyTaken),
		ghr:     history.NewGlobal(histBits),
		mask:    uint64(bankEntries - 1),
		idxBits: log2(bankEntries),
	}
}

func (g *refGSkew2Bc) fold(v uint64) uint64 {
	folded := uint64(0)
	for v != 0 {
		folded ^= v & g.mask
		v >>= g.idxBits
	}
	return folded
}

func (g *refGSkew2Bc) indices(pc uint64) (bim, i0, i1, meta int) {
	p := pc >> 2
	h := g.ghr.Value()
	bim = int(p & g.mask)
	i0 = int(g.fold(p ^ h ^ rotl64(h, 7)))
	i1 = int(g.fold(p ^ rotl64(p, 5) ^ rotl64(h, 13)))
	meta = int(hashPC(pc) & g.mask)
	return bim, i0, i1, meta
}

func (g *refGSkew2Bc) Predict(pc uint64) bool {
	ib, i0, i1, im := g.indices(pc)
	if g.meta.Taken(im) {
		return majority(g.bim.Taken(ib), g.g0.Taken(i0), g.g1.Taken(i1))
	}
	return g.bim.Taken(ib)
}

func (g *refGSkew2Bc) Update(pc uint64, taken bool) {
	ib, i0, i1, im := g.indices(pc)
	bimT, g0T, g1T := g.bim.Taken(ib), g.g0.Taken(i0), g.g1.Taken(i1)
	useSkew := g.meta.Taken(im)
	skewPred := majority(bimT, g0T, g1T)
	pred := bimT
	if useSkew {
		pred = skewPred
	}
	switch {
	case pred == taken && useSkew:
		if bimT == taken {
			g.bim.Update(ib, taken)
		}
		if g0T == taken {
			g.g0.Update(i0, taken)
		}
		if g1T == taken {
			g.g1.Update(i1, taken)
		}
	case pred == taken:
		g.bim.Update(ib, taken)
	default:
		g.bim.Update(ib, taken)
		g.g0.Update(i0, taken)
		g.g1.Update(i1, taken)
	}
	if bimT != skewPred {
		g.meta.Update(im, skewPred == taken)
	}
	g.ghr.Push(taken)
}
