package predictor

import (
	"fmt"
	"sort"
	"testing"
)

// heavyFuzzHeader is the number of configuration bytes in front of a
// FuzzPredictorVsReference input; the rest is the branch stream, three
// bytes per branch.
const heavyFuzzHeader = 16

// heavyFromHeader builds one heavy predictor configuration from the header
// bytes, twice as the engine and once as the naive reference. Every
// configuration reachable here is valid: history lengths from 1 to 64
// (below, equal to and not a multiple of the index width), weight widths
// 2–16, local history off or on.
func heavyFromHeader(h []byte) (engine func() Predictor, ref refPredictor, desc string) {
	switch h[0] % 3 {
	case 0:
		hg := 1 + uint(h[2]%64)
		cfg := PerceptronConfig{
			Entries:     1 + int(h[1]%64),
			GlobalBits:  hg,
			LocalBits:   uint(h[3]) % (65 - hg),
			LocalTables: 1 << (h[4] % 6),
			WeightBits:  2 + uint(h[5]%15),
		}
		return func() Predictor { return NewPerceptron(cfg) }, newRefPerceptron(cfg), fmt.Sprintf("%+v", cfg)
	case 1:
		lengths := make([]uint, 1+h[2]%5)
		for i := range lengths {
			lengths[i] = 1 + uint(h[6+i]%64)
		}
		sort.Slice(lengths, func(i, j int) bool { return lengths[i] < lengths[j] })
		cfg := MCConfig{
			BimodalEntries:   1 << (h[3] % 10),
			ComponentEntries: 1 << (1 + h[1]%12),
			HistoryLengths:   lengths,
			SelectorEntries:  1 << (h[4] % 10),
		}
		if h[5]&1 == 1 {
			cfg.LocalHistories, cfg.LocalBits = 1<<(h[5]>>1%8), 1+uint(h[11]%12)
		}
		return func() Predictor { return NewMultiComponent(cfg) }, newRefMultiComponent(cfg), fmt.Sprintf("%+v", cfg)
	default:
		entries, hist := 1<<(1+h[1]%14), 1+uint(h[2]%64)
		return func() Predictor { return NewGSkew2BcHist(entries, hist) }, newRefGSkew2Bc(entries, hist),
			fmt.Sprintf("2Bc-gskew %d entries, %d history bits", entries, hist)
	}
}

// decodeBranches turns three bytes per branch into a stream: a PC from a
// 16-bit word address (so tables alias) with the high byte's top bits
// widened into the upper PC bits the hashes fold, and the outcome from the
// last byte's low bit, made sticky by its next bit so histories carry
// patterns rather than noise.
func decodeBranches(b []byte) (pcs []uint64, takens []bool) {
	last := false
	for ; len(b) >= 3; b = b[3:] {
		pc := uint64(b[0])<<2 | uint64(b[1])<<10 | uint64(b[1]>>5)<<33
		taken := b[2]&1 == 1
		if b[2]&2 != 0 {
			taken = last
		}
		pcs, takens, last = append(pcs, pc), append(takens, taken), taken
	}
	return pcs, takens
}

// FuzzPredictorVsReference drives each heavy predictor three ways over the
// same branch stream — the naive reference, the engine through
// Predict/Update with a stray Predict of another branch between some pairs,
// and the engine through StepBatch over uneven batches with a moving
// warm-up boundary — and requires every prediction to agree: per
// branch for the scalar engine, per batch count (and per branch in
// one-branch batches) for the batch stepper, and over a probe of PCs at
// the end.
func FuzzPredictorVsReference(f *testing.F) {
	for kind := byte(0); kind < 3; kind++ {
		for _, n := range []int{0, 50, 600, 4000} {
			seed := make([]byte, heavyFuzzHeader+3*n)
			x := uint32(n) + 11*uint32(kind)
			for i := range seed {
				x = x*1664525 + 1013904223
				seed[i] = byte(x >> 24)
			}
			seed[0] = kind
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < heavyFuzzHeader {
			return
		}
		hdr := data[:heavyFuzzHeader]
		mk, ref, desc := heavyFromHeader(hdr)
		scalar, batched := mk(), mk()
		stepper := batched.(BatchStepper)
		pcs, takens := decodeBranches(data[heavyFuzzHeader:])
		sizes := []int{1, 1 + int(hdr[12]%17), 1, 1 + int(hdr[13])}
		for off, k := 0, 0; off < len(pcs); k++ {
			n := min(sizes[k%len(sizes)], len(pcs)-off)
			from := []int{0, n, n / 2}[k%3]
			var want int64
			for i := off; i < off+n; i++ {
				rp, sp := ref.Predict(pcs[i]), scalar.Predict(pcs[i])
				if rp != sp {
					t.Fatalf("%s: branch %d (pc %#x): engine predicts %v, reference %v", desc, i, pcs[i], sp, rp)
				}
				if (i+int(hdr[14]))%3 == 0 {
					// An out-of-order driver predicts another branch
					// before this one updates; Predict stays a pure read.
					scalar.Predict(pcs[i] ^ 4)
				}
				ref.Update(pcs[i], takens[i])
				scalar.Update(pcs[i], takens[i])
				if i-off >= from && rp != takens[i] {
					want++
				}
			}
			if got := stepper.StepBatch(pcs[off:off+n], takens[off:off+n], from); got != want {
				t.Fatalf("%s: batch %d at branch %d (%d branches, measured from %d): StepBatch counted %d mispredicts, reference %d",
					desc, k, off, n, from, got, want)
			}
			off += n
		}
		for i := uint64(0); i < 256; i++ {
			pc := i<<2 | i<<12 | i<<33
			if rp := ref.Predict(pc); scalar.Predict(pc) != rp || batched.Predict(pc) != rp {
				t.Fatalf("%s: final state diverges at probe pc %#x", desc, pc)
			}
		}
	})
}

// TestHeavyPredictorsMatchReference pins the factory configurations of the
// heavy predictors — every Figure 1 budget — to the naive references,
// branch by branch, on a stream long enough to saturate weights and wrap
// every folded history.
func TestHeavyPredictorsMatchReference(t *testing.T) {
	pcs, takens := branchStream(30_000)
	for _, kb := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512} {
		budget := kb << 10
		entries := pow2Entries(budget/4, 2, 4)
		for _, c := range []struct {
			engine Predictor
			ref    refPredictor
		}{
			{NewPerceptronFromBudget(budget), newRefPerceptron(perceptronBudgetConfig(budget))},
			{NewMultiComponentFromBudget(budget), newRefMultiComponent(mcBudgetConfig(budget))},
			{NewGSkew2BcFromBudget(budget), newRefGSkew2Bc(entries, log2(entries))},
		} {
			for i, pc := range pcs {
				if got, want := c.engine.Predict(pc), c.ref.Predict(pc); got != want {
					t.Fatalf("%s: branch %d: engine predicts %v, reference %v", c.engine.Name(), i, got, want)
				}
				c.engine.Update(pc, takens[i])
				c.ref.Update(pc, takens[i])
			}
		}
	}
}
