package core

import (
	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// refGShareFast is gshare.fast as it stood before FastPipe became the one
// copy of its history, clock and index code: a self-contained predictor
// with its own fetch clock, snapshot list and split index, driven by the
// scalar OnCycle/Predict/Update protocol and the PredictBlock→UpdateBlock
// hand-off. It is the test-only reference FuzzStepVsReference holds the
// rebuilt GShareFast and BiModeFast against.
type refGShareFast struct {
	pht     *counter.Array2
	ghr     *history.Global
	idxBits uint
	bufBits uint
	latency int

	cycle         uint64
	externalClock bool
	pushes        uint64
	snaps         []refSnap

	updateLag int
	pending   []pendingUpdate

	lastBlockPreds []bool
}

type refSnap struct {
	cycle  uint64
	pushes uint64
	hist   uint64
}

func newRefGShareFast(cfg Config) *refGShareFast {
	idxBits := uint(0)
	for n := cfg.Entries; n > 1; n >>= 1 {
		idxBits++
	}
	histBits := idxBits
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	bufBits := cfg.BufferBits
	if bufBits == 0 {
		bufBits = (idxBits + 1) / 2
		if bufBits < DefaultBufferBits {
			bufBits = DefaultBufferBits
		}
	}
	if bufBits > idxBits {
		bufBits = idxBits
	}
	return &refGShareFast{
		pht:       counter.NewArray2(cfg.Entries, counter.WeaklyNotTaken),
		ghr:       history.NewGlobal(histBits),
		idxBits:   idxBits,
		bufBits:   bufBits,
		latency:   cfg.Latency,
		updateLag: cfg.UpdateLag,
		snaps:     []refSnap{{}},
	}
}

func (g *refGShareFast) OnCycle(cycle uint64) {
	g.externalClock = true
	if cycle > g.cycle {
		g.cycle = cycle
	}
}

func (g *refGShareFast) histAt(c uint64) (hist, pushes uint64) {
	for i := len(g.snaps) - 1; i >= 0; i-- {
		if g.snaps[i].cycle <= c {
			return g.snaps[i].hist, g.snaps[i].pushes
		}
	}
	return g.snaps[0].hist, g.snaps[0].pushes
}

func (g *refGShareFast) recordHistory() {
	h := g.ghr.Value()
	if n := len(g.snaps); n > 0 && g.snaps[n-1].cycle == g.cycle {
		g.snaps[n-1].hist = h
		g.snaps[n-1].pushes = g.pushes
		return
	}
	g.snaps = append(g.snaps, refSnap{cycle: g.cycle, pushes: g.pushes, hist: h})
	if len(g.snaps) > g.latency+2 {
		cut := uint64(0)
		if g.cycle > uint64(g.latency) {
			cut = g.cycle - uint64(g.latency)
		}
		keepFrom := 0
		for i := len(g.snaps) - 1; i >= 0; i-- {
			if g.snaps[i].cycle <= cut {
				keepFrom = i
				break
			}
		}
		if keepFrom > 0 {
			g.snaps = append(g.snaps[:0], g.snaps[keepFrom:]...)
		}
	}
}

func (g *refGShareFast) index(pc uint64) int {
	lowMask := uint64(1)<<g.bufBits - 1
	cur := g.ghr.Value()
	low := ((pc >> 2) ^ cur) & lowMask
	if g.idxBits == g.bufBits {
		return int(low)
	}
	var rowCycle uint64
	if g.cycle > uint64(g.latency) {
		rowCycle = g.cycle - uint64(g.latency)
	}
	rowMask := uint64(1)<<(g.idxBits-g.bufBits) - 1
	oldHist, oldPushes := g.histAt(rowCycle)
	var row uint64
	if k := g.pushes - oldPushes; k <= uint64(g.bufBits) {
		row = (cur >> rowShift) & rowMask
	} else {
		row = oldHist & rowMask
	}
	return int(row<<g.bufBits | low)
}

func (g *refGShareFast) Predict(pc uint64) bool { return g.pht.Taken(g.index(pc)) }

func (g *refGShareFast) Update(pc uint64, taken bool) {
	idx := g.index(pc)
	if g.updateLag == 0 {
		g.pht.Update(idx, taken)
	} else {
		g.pending = append(g.pending, pendingUpdate{index: idx, taken: taken})
		if len(g.pending) > g.updateLag {
			u := g.pending[0]
			g.pending = g.pending[1:]
			g.pht.Update(u.index, u.taken)
		}
	}
	g.push(taken)
}

// push is the history half of Update: the outcome enters the register, the
// cycle's snapshot is recorded, and a self-driven clock ticks.
func (g *refGShareFast) push(taken bool) {
	g.ghr.Push(taken)
	g.pushes++
	g.recordHistory()
	if !g.externalClock {
		g.cycle++
	}
}

func (g *refGShareFast) Flush() {
	for _, u := range g.pending {
		g.pht.Update(u.index, u.taken)
	}
	g.pending = g.pending[:0]
}

func (g *refGShareFast) PredictBlock(pcs []uint64) []bool {
	preds := make([]bool, len(pcs))
	snap := g.ghr.Snapshot()
	for i, pc := range pcs {
		preds[i] = g.pht.Taken(g.index(pc))
		g.ghr.Push(preds[i])
	}
	g.ghr.Restore(snap)
	g.lastBlockPreds = append(g.lastBlockPreds[:0], preds...)
	return preds
}

func (g *refGShareFast) UpdateBlock(pcs []uint64, takens []bool) {
	preds := g.lastBlockPreds
	if len(preds) != len(pcs) {
		preds = takens
	}
	snap := g.ghr.Snapshot()
	for i, pc := range pcs {
		idx := g.index(pc)
		g.ghr.Push(preds[i])
		if g.updateLag == 0 {
			g.pht.Update(idx, takens[i])
		} else {
			g.pending = append(g.pending, pendingUpdate{index: idx, taken: takens[i]})
		}
	}
	g.ghr.Restore(snap)
	g.lastBlockPreds = g.lastBlockPreds[:0]
	for g.updateLag > 0 && len(g.pending) > g.updateLag {
		u := g.pending[0]
		g.pending = g.pending[1:]
		g.pht.Update(u.index, u.taken)
	}
	for _, t := range takens {
		g.ghr.Push(t)
		g.pushes++
	}
	g.recordHistory()
	if !g.externalClock {
		g.cycle++
	}
}

// refBiModeFast is the pipelined bi-mode predictor on refGShareFast's
// index and history machinery (its own PHT unused): the scalar protocol
// BiModeFast's batch step must reproduce.
type refBiModeFast struct {
	pipe   *refGShareFast
	taken  *counter.Array2
	notTkn *counter.Array2
	choice *counter.Array2
	chMask uint64
}

func newRefBiModeFast(cfg BiModeFastConfig) *refBiModeFast {
	return &refBiModeFast{
		pipe:   newRefGShareFast(Config{Entries: cfg.DirEntries, Latency: cfg.Latency}),
		taken:  counter.NewArray2(cfg.DirEntries, counter.WeaklyTaken),
		notTkn: counter.NewArray2(cfg.DirEntries, counter.WeaklyNotTaken),
		choice: counter.NewArray2(cfg.ChoiceEntries, counter.WeaklyNotTaken),
		chMask: uint64(cfg.ChoiceEntries - 1),
	}
}

func (b *refBiModeFast) OnCycle(cycle uint64) { b.pipe.OnCycle(cycle) }

func (b *refBiModeFast) Predict(pc uint64) bool {
	dirIdx := b.pipe.index(pc)
	if b.choice.Taken(int((pc >> 2) & b.chMask)) {
		return b.taken.Taken(dirIdx)
	}
	return b.notTkn.Taken(dirIdx)
}

func (b *refBiModeFast) Update(pc uint64, taken bool) {
	choiceIdx := int((pc >> 2) & b.chMask)
	dirIdx := b.pipe.index(pc)
	useTaken := b.choice.Taken(choiceIdx)
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
	b.pipe.push(taken)
}
