// Package predictor implements the conditional branch direction predictors
// the paper evaluates against gshare.fast: the classic baselines (bimodal,
// gshare, gselect, bi-mode, two-level local), the industrial designs of §2.1
// (the Alpha 21264/EV6 hybrid), and the complex academic predictors of §4.1
// (2Bc-gskew, Evers' multi-component hybrid, and the global+local perceptron
// predictor).
//
// Every predictor satisfies the Predictor interface. The functional protocol
// is strict alternation in program order: Predict(pc) followed immediately by
// Update(pc, taken) for the same branch. Histories are advanced inside
// Update, which — because the trace-driven drivers deliver only correct-path
// branches — is exactly equivalent to the paper's assumption of speculative
// history update with precise repair after a misprediction (§4.1.2). The
// engines drive the same protocol in batches (BatchStepper): with no wrong
// path and no update lag outside the one gshare.fast models itself, one
// predict-and-train step per branch is exact.
package predictor

import "fmt"

// Predictor predicts conditional branch directions.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome of the branch
	// at pc. It must be called exactly once after each Predict, in program
	// order.
	Update(pc uint64, taken bool)
	// SizeBytes returns the hardware budget consumed: every prediction
	// table, history register and weight array, in bytes.
	SizeBytes() int
	// Name identifies the predictor and its configuration, e.g.
	// "gshare-64KB".
	Name() string
}

// CycleAware is implemented by predictors whose behaviour depends on fetch
// timing, such as the pipelined gshare.fast, whose PHT row address uses the
// global history as of several cycles before the prediction. OnCycle
// announces a monotonically non-decreasing fetch-cycle number before the
// predictions of that cycle; announcing the same cycle again is a no-op.
// A predictor that has never been announced a cycle clocks itself, one
// cycle per branch (conservative single-branch-per-cycle timing). The
// engines never call OnCycle directly: they hand the fetch cycles to
// BatchStepper.StepBatch as a column.
type CycleAware interface {
	OnCycle(cycle uint64)
}

// BatchStepper is the engines' one prediction protocol: step the predictor
// through a batch of resolved branches in stream order with one call.
// StepBatch must be observationally identical to
//
//	if cycles != nil { p.OnCycle(cycles[i]) } // cycle-aware p only
//	preds[i] = p.Predict(pcs[i])
//	p.Update(pcs[i], takens[i])
//
// applied for i = 0..len(pcs)-1; preds is at least as long as pcs, and
// cycles, when not nil, holds each branch's fetch cycle. A nil cycles
// column announces nothing, so a cycle-aware predictor clocks itself, and
// a cycle-oblivious one ignores the column. "Identical" means
// bit-identical: the same per-branch predictions and the same table and
// history state afterwards, which the equivalence suites in this package
// and in funcsim, pipeline and core enforce against the scalar protocol.
//
// Both engines resolve a lane's stepper once with core.BatchStepperOf,
// which adapts a predictor with no StepBatch of its own to one
// Predict/Update pair per branch. The accuracy engine (funcsim.RunMany)
// steps every lane once per batch, with the cycle column its fetch-width
// clock implies. The timing engine (pipeline.RunMany) steps a lane once
// per batch before its scoreboard sweep, with no column, unless the
// lane's predictions depend on the clock (core.NeedsClock): a fetch cycle
// there depends on earlier predictions, so such a lane steps one branch
// at a time with a one-entry column. A predictor implements StepBatch
// when one fused step per branch saves work over the pair: the cheap table
// predictors save dispatch and a duplicate index computation, and the
// heavy ones (perceptron, multi-component, 2Bc-gskew) save their second
// lookup — the row and history reads, the selector and the component
// reads, or the four skewed bank indices.
type BatchStepper interface {
	StepBatch(pcs []uint64, takens []bool, cycles []uint64, preds []bool)
}

// pow2Entries returns the largest power-of-two entry count such that
// entries*bitsPerEntry fits in budgetBytes, and at least minEntries.
func pow2Entries(budgetBytes int, bitsPerEntry int, minEntries int) int {
	if budgetBytes <= 0 || bitsPerEntry <= 0 {
		return minEntries
	}
	maxBits := int64(budgetBytes) * 8
	entries := 1
	for int64(entries)*2*int64(bitsPerEntry) <= maxBits {
		entries *= 2
	}
	if entries < minEntries {
		entries = minEntries
	}
	return entries
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// budgetName renders a byte count the way the paper labels hardware budgets:
// "2KB", "512KB", "53KB".
func budgetName(bytes int) string {
	if bytes >= 1024 && bytes%1024 == 0 {
		return fmt.Sprintf("%dKB", bytes/1024)
	}
	if bytes >= 1024 {
		return fmt.Sprintf("%.1fKB", float64(bytes)/1024)
	}
	return fmt.Sprintf("%dB", bytes)
}

// pcIndex maps a word-aligned branch PC into a table of mask+1 entries.
func pcIndex(pc uint64, mask uint64) uint64 { return (pc >> 2) & mask }

// hashPC mixes PC bits for tables that would otherwise see only low-order
// bits; a cheap xor-fold keeps it implementable in one gate level per bit.
func hashPC(pc uint64) uint64 {
	pc >>= 2
	return pc ^ pc>>13 ^ pc>>29
}

// DelayFootprint is implemented by predictors that can report the geometry
// of their largest table component, which dominates access delay (§4.1.5:
// "we estimate the latency of the largest table component").
type DelayFootprint interface {
	// LargestTable returns the byte size and entry count of the largest
	// single SRAM array read on the prediction critical path.
	LargestTable() (bytes, entries int)
}

// RecoveryCost is implemented by predictor organizations that charge the
// front end extra cycles after a branch misprediction, beyond the normal
// redirect/refill. The paper's gshare.fast avoids this cost by
// checkpointing its PHT buffer per pipeline stage (§3.2); the cost appears
// when that mechanism is omitted.
type RecoveryCost interface {
	// RecoveryPenalty returns the extra fetch bubble, in cycles, charged
	// when a misprediction redirects fetch.
	RecoveryPenalty() int
}
