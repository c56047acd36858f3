// Package core implements the paper's primary contribution: gshare.fast, a
// large gshare predictor pipelined so that every prediction completes in a
// single cycle regardless of PHT size (§3), plus the overriding organization
// (§2.6.1) that complex predictors need to approximate the same property —
// and whose disagreement penalty is the paper's central villain.
package core

import (
	"fmt"

	"branchsim/internal/counter"
)

// GShareFast is the pipelined gshare predictor of §3: a PHT indexed by the
// embedded FastPipe, whose split index reads a row prefetched with history
// Latency cycles old and late-selects its low bits with the newest history
// in a single final stage. Because that stage is one mux plus one XOR, the
// predictor delivers an up-to-date prediction every cycle with no
// overriding and no interaction with the rest of the pipeline beyond
// prediction and recovery (§3.3.4).
type GShareFast struct {
	FastPipe
	pht *counter.Array2

	// Delayed non-speculative PHT update (§3.2): counters train up to
	// UpdateLag branches after prediction, modelling the multi-cycle
	// write path into a large PHT. The in-flight writes sit in a ring of
	// UpdateLag entries, the oldest at head.
	updateLag int
	pending   []pendingUpdate //bplint:allow sizebytes models the in-flight write queue of the PHT port, not a prediction table
	head      int
	queued    int

	name string
}

type pendingUpdate struct {
	index int
	taken bool
}

// Config sizes a gshare.fast predictor.
type Config struct {
	// Entries is the PHT size in 2-bit counters (a power of two).
	Entries int
	// Latency is the PHT read latency in cycles; the predictor pipeline
	// has Latency+1 stages (Figure 4 shows Latency=3, four stages). Must
	// be at least 1.
	Latency int
	// UpdateLag delays each PHT counter update by this many branches
	// (0 = immediate). §3.2 reports that a lag of 64 branches costs about
	// 0.04 percentage points of accuracy at a 256 KB budget.
	UpdateLag int
	// BufferBits overrides the PHT-buffer index width (0 selects
	// DefaultBufferBits). The buffer holds 2^BufferBits counters;
	// narrower buffers prefetch less but leave fewer index bits to the
	// fresh history, wider ones the reverse — the ablation benchmarks
	// sweep this.
	BufferBits uint
}

// New returns a gshare.fast predictor. History length is the maximum the
// table supports, log2(Entries), as in §4.1.4.
func New(cfg Config) *GShareFast {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("core: gshare.fast entries %d not a power of two", cfg.Entries))
	}
	if cfg.Latency < 1 {
		panic(fmt.Sprintf("core: gshare.fast latency %d must be >= 1", cfg.Latency))
	}
	if cfg.UpdateLag < 0 {
		panic(fmt.Sprintf("core: gshare.fast update lag %d must be >= 0", cfg.UpdateLag))
	}
	g := &GShareFast{
		FastPipe:  NewFastPipe(log2(cfg.Entries), cfg.Latency, cfg.BufferBits),
		pht:       counter.NewArray2(cfg.Entries, counter.WeaklyNotTaken),
		updateLag: cfg.UpdateLag,
		pending:   make([]pendingUpdate, cfg.UpdateLag),
	}
	g.name = fmt.Sprintf("gshare.fast-%s", budgetName(g.SizeBytes()))
	return g
}

// Predict implements predictor.Predictor.
func (g *GShareFast) Predict(pc uint64) bool {
	return g.pht.Taken(g.Index(pc))
}

// Update implements predictor.Predictor.
func (g *GShareFast) Update(pc uint64, taken bool) {
	g.train(g.Index(pc), taken)
	g.Push(taken)
}

// StepBatch implements predictor.BatchStepper: each branch's index is
// computed once, for the prediction and the training. Bit-identity is
// pinned by FuzzStepVsReference, zero allocations per batch (lagged or
// not) by TestPredictorStepAllocs.
func (g *GShareFast) StepBatch(pcs []uint64, takens []bool, cycles []uint64, preds []bool) {
	for i, pc := range pcs {
		g.clockAt(cycles, i)
		idx := g.Index(pc)
		preds[i] = g.pht.Taken(idx)
		g.train(idx, takens[i])
		g.Push(takens[i])
	}
}

// train applies one counter update at idx. The update is enqueued behind
// UpdateLag younger branches (the slow non-speculative PHT write path of
// §3.2); the speculative history, which the caller pushes, updates
// immediately, as the New History latches do in hardware.
func (g *GShareFast) train(idx int, taken bool) {
	if g.updateLag == 0 {
		g.pht.Update(idx, taken)
		return
	}
	u := pendingUpdate{index: idx, taken: taken}
	if g.queued < g.updateLag {
		g.pending[(g.head+g.queued)%g.updateLag] = u
		g.queued++
		return
	}
	// Full: the oldest write lands and its slot takes the newest.
	due := g.pending[g.head]
	g.pht.Update(due.index, due.taken)
	g.pending[g.head] = u
	if g.head++; g.head == g.updateLag {
		g.head = 0
	}
}

// Flush applies all pending delayed updates, oldest first, and empties the
// write queue. No engine calls it: a run ends with up to UpdateLag writes
// still in flight, as the hardware would. Tests call it to compare PHT
// state with every write landed.
func (g *GShareFast) Flush() {
	for i := 0; i < g.queued; i++ {
		u := g.pending[(g.head+i)%g.updateLag]
		g.pht.Update(u.index, u.taken)
	}
	g.head, g.queued = 0, 0
}

// SizeBytes implements predictor.Predictor: the PHT, the history register,
// and the PHT buffer with its per-stage checkpoint copies (§3.2 keeps one
// buffer copy per pipeline stage for misprediction recovery).
func (g *GShareFast) SizeBytes() int {
	return g.pht.SizeBytes() + g.HistorySizeBytes() + g.BufferStateBytes()
}

// Name implements predictor.Predictor.
func (g *GShareFast) Name() string { return g.name }

// Entries returns the PHT size in counters.
func (g *GShareFast) Entries() int { return g.pht.Len() }

func budgetName(bytes int) string {
	if bytes >= 1024 {
		return fmt.Sprintf("%dKB", (bytes+512)/1024)
	}
	return fmt.Sprintf("%dB", bytes)
}

// log2 returns log2(n) for a power of two n.
func log2(n int) uint {
	var b uint
	for ; n > 1; n >>= 1 {
		b++
	}
	return b
}

// LargestTable implements predictor.DelayFootprint: the PHT itself. Its
// multi-cycle access latency sets the predictor pipeline depth, not the
// prediction latency, which is always a single cycle.
func (g *GShareFast) LargestTable() (int, int) { return g.pht.SizeBytes(), g.pht.Len() }

// NoCheckpoint wraps a gshare.fast whose PHT buffer is NOT checkpointed per
// pipeline stage: after a misprediction the buffer contents are invalid for
// the cycles it takes to refill from the PHT, so every misprediction costs
// an extra Latency()-cycle fetch bubble. The paper's design eliminates this
// with per-stage buffer copies (§3.2); this wrapper exists to measure what
// that mechanism is worth (the `recovery` ablation).
type NoCheckpoint struct {
	*GShareFast
}

// WithoutCheckpointing wraps g so timing simulations charge the buffer
// refill after each misprediction.
func WithoutCheckpointing(g *GShareFast) NoCheckpoint { return NoCheckpoint{g} }

// RecoveryPenalty implements predictor.RecoveryCost: the buffer refill
// takes a full PHT read.
func (n NoCheckpoint) RecoveryPenalty() int { return n.Latency() }

// Name implements predictor.Predictor.
func (n NoCheckpoint) Name() string { return n.GShareFast.Name() + "-nockpt" }
