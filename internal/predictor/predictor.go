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
// history update with precise repair after a misprediction (§4.1.2).
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
// global history as of several cycles before the prediction. Drivers call
// OnCycle with a monotonically non-decreasing fetch-cycle number before
// issuing predictions for that cycle; drivers that never call it get
// conservative single-branch-per-cycle timing.
type CycleAware interface {
	OnCycle(cycle uint64)
}

// BatchStepper is the fused sweep driver's per-lane protocol
// (funcsim.RunMany): step the predictor through a batch of resolved
// branches in stream order with one call instead of one Predict/Update
// pair per branch. StepBatch must be observationally identical to
//
//	pred := p.Predict(pcs[i])
//	p.Update(pcs[i], takens[i])
//
// applied for i = 0..len(pcs)-1, returning the number of branches at
// i >= measuredFrom whose pred differed from takens[i]. "Identical" means
// bit-identical: the same table and history state afterwards and the same
// per-branch predictions, which the equivalence suites in this package and
// in funcsim enforce against the scalar protocol. A predictor implements it
// when one fused step per branch saves work over the pair: the cheap table
// predictors save dispatch and a duplicate index computation, and the heavy
// ones (perceptron, multi-component, 2Bc-gskew) save their second lookup —
// the row and history reads, the selector and the component reads, or the
// four skewed bank indices. Cycle-aware predictors cannot implement it: their
// per-branch OnCycle interleaving needs the scalar loop.
type BatchStepper interface {
	StepBatch(pcs []uint64, takens []bool, measuredFrom int) (mispredicts int64)
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
