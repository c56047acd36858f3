package predictor

import (
	"fmt"
	"math/bits"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// MultiComponent implements the multi-component hybrid predictor in the
// style of Evers' multi-hybrid (PhD thesis, Michigan 1999; ISCA 1996): a set
// of two-level components whose history lengths increase geometrically, so
// each branch can be served by the component whose history length matches
// its correlation distance, plus a bimodal component for biased branches.
// Selection uses per-component 2-bit confidence counters kept in a PC-indexed
// selector table; the confident component with the longest history wins.
//
// This is the most accurate — and the most delay-hostile — predictor in the
// paper's evaluation: a prediction needs N table reads plus a selection
// network, which is exactly the complexity §2.2 warns about.
type MultiComponent struct {
	bimodal    *counter.Array2
	bimMask    uint64
	components []*mcComponent
	// Optional local two-level component (Evers' multi-hybrid mixes
	// global- and local-history components).
	localPHT  *counter.Array2
	localHist *history.Local
	selector  []*counter.ArrayN // one confidence array per prediction source
	selMask   uint64
	ghr       *history.Global
	name      string
}

// mcComponent is one gshare-style two-level component indexed by its PC
// and its history slice XOR-folded down to the index width. The fold is a
// TAGE-style folded history register updated on every history push, so a
// lookup costs one XOR instead of a loop over the history's chunks; being
// a function of the global history register, it is not hardware state of
// its own and is not counted in SizeBytes.
type mcComponent struct {
	pht      *counter.Array2
	histBits uint
	mask     uint64
	idxBits  uint
	outPos   uint   // histBits % idxBits: where the outgoing bit sits in the fold
	folded   uint64 // the histBits-bit history slice, folded to idxBits bits
}

// index returns the component's table index for pc under the current fold.
func (c *mcComponent) index(pc uint64) int {
	v := pc >> 2
	return int(v&c.mask ^ v>>c.idxBits&c.mask ^ c.folded)
}

// push folds outcome t into the register as the global history shifts,
// given the history before the shift: t enters at bit 0, the outcome
// leaving the component's histBits-bit window (bit histBits-1 of hist) is
// XORed back out, and the bit carried past the index width wraps to bit 0.
func (c *mcComponent) push(hist uint64, t bool) {
	f := c.folded << 1
	if t {
		f |= 1
	}
	f ^= (hist >> (c.histBits - 1) & 1) << c.outPos
	f ^= f >> c.idxBits
	c.folded = f & c.mask
}

// MCConfig sizes a multi-component hybrid.
type MCConfig struct {
	BimodalEntries   int    // bimodal component entries (power of two)
	ComponentEntries int    // per-component PHT entries (power of two)
	HistoryLengths   []uint // one two-level component per entry, ascending
	SelectorEntries  int    // selector table entries (power of two)
	// LocalHistories and LocalBits, when nonzero, add a two-level local
	// component: LocalHistories registers of LocalBits bits indexing a
	// 2^LocalBits-entry PHT.
	LocalHistories int
	LocalBits      uint
}

// NewMultiComponent returns a multi-component hybrid with the given
// configuration.
func NewMultiComponent(cfg MCConfig) *MultiComponent {
	if len(cfg.HistoryLengths) == 0 {
		panic("predictor: multi-component needs at least one history length")
	}
	if cfg.ComponentEntries <= 0 || cfg.ComponentEntries&(cfg.ComponentEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: component entries %d not a power of two", cfg.ComponentEntries))
	}
	if cfg.BimodalEntries <= 0 || cfg.BimodalEntries&(cfg.BimodalEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: bimodal entries %d not a power of two", cfg.BimodalEntries))
	}
	if cfg.SelectorEntries <= 0 || cfg.SelectorEntries&(cfg.SelectorEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: selector entries %d not a power of two", cfg.SelectorEntries))
	}
	if cfg.ComponentEntries < 2 {
		panic(fmt.Sprintf("predictor: multi-component needs at least two entries per component (config %+v)", cfg))
	}
	if len(cfg.HistoryLengths) > 62 {
		panic(fmt.Sprintf("predictor: %d history components exceed the 62 supported (config %+v)", len(cfg.HistoryLengths), cfg))
	}
	for i, h := range cfg.HistoryLengths {
		if h == 0 || i > 0 && h < cfg.HistoryLengths[i-1] {
			panic(fmt.Sprintf("predictor: history lengths must be positive and ascending (config %+v)", cfg))
		}
	}
	maxHist := cfg.HistoryLengths[len(cfg.HistoryLengths)-1]
	if maxHist > history.MaxGlobalBits {
		panic(fmt.Sprintf("predictor: history length %d exceeds %d", maxHist, history.MaxGlobalBits))
	}
	m := &MultiComponent{
		bimodal: counter.NewArray2(cfg.BimodalEntries, counter.WeaklyNotTaken),
		bimMask: uint64(cfg.BimodalEntries - 1),
		selMask: uint64(cfg.SelectorEntries - 1),
		ghr:     history.NewGlobal(maxHist),
	}
	idxBits := log2(cfg.ComponentEntries)
	for _, h := range cfg.HistoryLengths {
		m.components = append(m.components, &mcComponent{
			pht:      counter.NewArray2(cfg.ComponentEntries, counter.WeaklyNotTaken),
			histBits: h,
			mask:     uint64(cfg.ComponentEntries - 1),
			idxBits:  idxBits,
			outPos:   h % idxBits,
		})
	}
	if cfg.LocalHistories > 0 && cfg.LocalBits > 0 {
		m.localPHT = counter.NewArray2(1<<cfg.LocalBits, counter.WeaklyNotTaken)
		m.localHist = history.NewLocal(cfg.LocalHistories, cfg.LocalBits)
	}
	// One confidence array per prediction source (global components,
	// then the local component if present, bimodal last). The bimodal
	// component starts fully confident and the history components one
	// notch below, so a history component must demonstrate an advantage
	// before it takes over a branch.
	for i := 0; i < m.sources()-1; i++ {
		m.selector = append(m.selector, counter.NewArrayN(cfg.SelectorEntries, 2, 2))
	}
	m.selector = append(m.selector, counter.NewArrayN(cfg.SelectorEntries, 2, 3))
	m.name = fmt.Sprintf("multicomponent-%s", budgetName(m.SizeBytes()))
	return m
}

// NewMultiComponentFromBudget configures a five-component hybrid (bimodal +
// four two-level components with geometric history lengths) around
// budgetBytes, following the shape of the thesis configurations. Like the
// paper's multi-component design points (18 KB, 53 KB, ... — never powers of
// two), the realized size lands near but not exactly on the request; the
// direction tables get a quarter of the budget each and the bimodal and
// selector tables ride on top.
func NewMultiComponentFromBudget(budgetBytes int) *MultiComponent {
	return NewMultiComponent(mcBudgetConfig(budgetBytes))
}

// mcBudgetConfig is NewMultiComponentFromBudget's configuration.
func mcBudgetConfig(budgetBytes int) MCConfig {
	compEntries := pow2Entries(budgetBytes/4, 2, 64)
	bimEntries := pow2Entries(budgetBytes/16, 2, 16)
	selEntries := pow2Entries(budgetBytes/16, 10, 16)
	idxBits := log2(compEntries)
	// History lengths: a short, fast-warming component up to a long one
	// well beyond the index width (folded) for long-range correlation.
	long := 5 * idxBits / 2
	if long > history.MaxGlobalBits {
		long = history.MaxGlobalBits
	}
	lengths := []uint{idxBits / 2, idxBits, 3 * idxBits / 2, long}
	if lengths[0] == 0 {
		lengths[0] = 1
	}
	return MCConfig{
		BimodalEntries:   bimEntries,
		ComponentEntries: compEntries,
		HistoryLengths:   lengths,
		SelectorEntries:  selEntries,
		LocalHistories:   1024,
		LocalBits:        10,
	}
}

// sources returns the number of prediction sources: the global components,
// the optional local component, and the bimodal table.
func (m *MultiComponent) sources() int {
	n := len(m.components) + 1
	if m.localPHT != nil {
		n++
	}
	return n
}

// choose returns the selector row for pc and the source it selects: the
// most confident one, ties going to the bimodal table and then to the
// shorter history.
func (m *MultiComponent) choose(pc uint64) (sel, chosen int) {
	sel = int(pcIndex(pc, m.selMask))
	bim := len(m.selector) - 1
	best, bestConf := bim, m.selector[bim].Get(sel)
	// Scan short-history components first: confidence ties go to the
	// component with the least context, which warms up fastest and
	// aliases least. A longer-history component takes over only when its
	// confidence strictly exceeds everything simpler — the stable
	// variant of Evers' priority selection for 2-bit confidences.
	for i, s := range m.selector[:bim] {
		if conf := s.Get(sel); conf > bestConf {
			best, bestConf = i, conf
		}
	}
	return sel, best
}

// sourceTaken reads source i's prediction (global components in order, then
// the local component if present, bimodal last).
func (m *MultiComponent) sourceTaken(i int, pc uint64) bool {
	switch {
	case i < len(m.components):
		c := m.components[i]
		return c.pht.Taken(c.index(pc))
	case i == len(m.selector)-1:
		return m.bimodal.Taken(int(pcIndex(pc, m.bimMask)))
	default:
		return m.localPHT.Taken(int(m.localHist.Get(pc)))
	}
}

// Predict implements Predictor. Only the chosen source's table is read.
func (m *MultiComponent) Predict(pc uint64) bool {
	_, chosen := m.choose(pc)
	return m.sourceTaken(chosen, pc)
}

// Update implements Predictor. All direction components train on every
// branch (total update). Confidence counters train only relative to the
// chosen component — if every counter simply tracked its own component's
// correctness, they would all saturate together on the mostly-correct stream
// and selection would collapse to the tie-break:
//
//   - chosen correct: wrong components are decremented;
//   - chosen wrong: correct components are incremented and the chosen
//     component is decremented.
func (m *MultiComponent) Update(pc uint64, taken bool) {
	m.step(pc, taken)
}

// step is Update, returning the prediction Predict made for the branch.
// Each direction table is read and trained in one pass
// (counter.Array2.PredictUpdate), the per-source predictions gathered as a
// bitmask (bit i = source i predicts taken); the selector trains on them,
// then the histories advance.
func (m *MultiComponent) step(pc uint64, taken bool) bool {
	var preds uint64
	for i, c := range m.components {
		if c.pht.PredictUpdate(c.index(pc), taken) {
			preds |= 1 << i
		}
	}
	bim := len(m.selector) - 1
	if m.localPHT != nil {
		if m.localPHT.PredictUpdate(int(m.localHist.Get(pc)), taken) {
			preds |= 1 << (bim - 1)
		}
		m.localHist.Push(pc, taken)
	}
	if m.bimodal.PredictUpdate(int(pcIndex(pc, m.bimMask)), taken) {
		preds |= 1 << bim
	}

	sel, chosen := m.choose(pc)
	all := uint64(1)<<(bim+1) - 1
	wrong := preds // bit i: source i mispredicted
	if taken {
		wrong ^= all
	}
	if wrong>>chosen&1 == 0 {
		// Chosen correct: the wrong sources lose confidence.
		for w := wrong; w != 0; w &= w - 1 {
			m.selector[bits.TrailingZeros64(w)].Update(sel, false)
		}
	} else {
		// Chosen wrong: it loses confidence and the correct sources gain.
		m.selector[chosen].Update(sel, false)
		for r := all &^ wrong; r != 0; r &= r - 1 {
			m.selector[bits.TrailingZeros64(r)].Update(sel, true)
		}
	}

	hist := m.ghr.Value()
	for _, c := range m.components {
		c.push(hist, taken)
	}
	m.ghr.Push(taken)
	return preds>>chosen&1 == 1
}

// StepBatch implements BatchStepper: one step per branch, so every table is
// read once per branch where Predict followed by Update reads the chosen
// source's table twice and the selector twice.
//
//bplint:hotpath fused-sweep multi-component lane; bit-identity pinned by TestStepBatchEquivalence
func (m *MultiComponent) StepBatch(pcs []uint64, takens []bool, _ []uint64, preds []bool) {
	for i, pc := range pcs {
		preds[i] = m.step(pc, takens[i])
	}
}

// SizeBytes implements Predictor.
func (m *MultiComponent) SizeBytes() int {
	size := m.bimodal.SizeBytes() + m.ghr.SizeBytes()
	if m.localPHT != nil {
		size += m.localPHT.SizeBytes() + m.localHist.SizeBytes()
	}
	for _, c := range m.components {
		size += c.pht.SizeBytes()
	}
	for _, s := range m.selector {
		size += s.SizeBytes()
	}
	return size
}

// Name implements Predictor.
func (m *MultiComponent) Name() string { return m.name }

// NumComponents returns the number of prediction sources including the
// bimodal one, exposed for the delay model (each is a separate table read).
func (m *MultiComponent) NumComponents() int { return m.sources() }

// LargestTable implements DelayFootprint: the two-level component PHTs are
// the largest arrays.
func (m *MultiComponent) LargestTable() (int, int) {
	c := m.components[0]
	return c.pht.SizeBytes(), c.pht.Len()
}
