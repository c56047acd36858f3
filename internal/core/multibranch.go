package core

import "fmt"

// Multiple-branch prediction (§3.3.1). Wide front ends must predict several
// branches per fetch block in one cycle. gshare.fast extends naturally:
// consecutive branches' candidate counters already sit near one another in
// the prefetched PHT buffer, so enlarging the buffer lets one access serve b
// predictions. All predictions within a block necessarily use the
// speculative history as of the start of the block — they cannot see each
// other's outcomes — which is the same stale-history compromise the EV8
// predictor makes across fetch blocks, reported to cost little accuracy.

// StepBlock predicts the len(pcs) branches of one fetch block into preds and
// trains on their outcomes, takens (funcsim.BlockPredictor). The PHT row is
// shared (prefetched with the block-start history), and each prediction is
// chained into the speculative history used to select the next one within
// the block (FastPipe.blockIndex) — the same New History Bit forwarding the
// predictor pipeline performs across stages, applied within a block. The
// residual accuracy cost of block prediction is therefore only the stale
// row address plus any wrong within-block predictions polluting the chain.
// Every prediction reads the PHT before any of the block trains it; the
// counters then train at the indices the predictions used, the block's true
// outcomes enter the history register, and a self-driven fetch clock
// advances one cycle.
func (g *GShareFast) StepBlock(pcs []uint64, takens, preds []bool) {
	if len(pcs) != len(takens) {
		panic("core: StepBlock length mismatch")
	}
	for i, pc := range pcs {
		preds[i] = g.pht.Taken(g.blockIndex(pc, preds[:i]))
	}
	for i, pc := range pcs {
		g.train(g.blockIndex(pc, preds[:i]), takens[i])
	}
	g.pushBlock(takens)
}

// BlockBufferEntries returns the PHT buffer size required to predict up to
// blockWidth branches per cycle with this predictor's latency: b·2^L entries
// (§3.3.1's example: 8 branches per cycle at latency 3 needs 64 entries).
func (g *GShareFast) BlockBufferEntries(blockWidth int) int {
	if blockWidth < 1 {
		panic(fmt.Sprintf("core: block width %d must be >= 1", blockWidth))
	}
	need := blockWidth << uint(g.Latency())
	if min := 1 << g.BufferBits(); need < min {
		return min
	}
	return need
}

// BlockSizeBytes returns the predictor's state size when configured for
// blockWidth predictions per cycle: the base predictor plus the enlarged
// buffer and its per-stage checkpoint copies, plus the widened Branch
// Present and New History latches (blockWidth bits per pipeline stage each).
func (g *GShareFast) BlockSizeBytes(blockWidth int) int {
	bufferBytes := g.BlockBufferEntries(blockWidth) * 2 / 8
	checkpoints := g.Latency() + 1
	latchBits := 2 * blockWidth * (g.Latency() + 1)
	return g.pht.SizeBytes() + g.HistorySizeBytes() +
		bufferBytes*(1+checkpoints) + (latchBits+7)/8
}
