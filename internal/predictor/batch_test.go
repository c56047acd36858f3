package predictor

import (
	"math/rand"
	"testing"
)

// stepBatchKinds are the BatchStepper implementations under test, each built
// twice so the fused and scalar protocols drive identical fresh state.
var stepBatchKinds = []struct {
	name string
	mk   func() Predictor
}{
	{"gshare", func() Predictor { return NewGShareFromBudget(8 << 10) }},
	{"gshare-short-history", func() Predictor { return NewGShare(1<<12, 5) }},
	{"bimodal", func() Predictor { return NewBimodalFromBudget(8 << 10) }},
	{"bimode", func() Predictor { return NewBiModeFromBudget(8 << 10) }},
	{"perceptron", func() Predictor { return NewPerceptronFromBudget(8 << 10) }},
	{"multicomponent", func() Predictor { return NewMultiComponentFromBudget(8 << 10) }},
	{"2bcgskew", func() Predictor { return NewGSkew2BcFromBudget(8 << 10) }},
}

// branchStream synthesizes a deterministic branch stream with enough
// structure (loops, correlated and biased branches) that every counter state
// and both bi-mode banks are exercised.
func branchStream(n int) (pcs []uint64, takens []bool) {
	rng := rand.New(rand.NewSource(42))
	pcs = make([]uint64, n)
	takens = make([]bool, n)
	hist := false
	for i := range pcs {
		pc := uint64(0x1000 + 4*(rng.Intn(300)))
		var taken bool
		switch pc % 3 {
		case 0:
			taken = i%7 != 0 // loop-like: mostly taken
		case 1:
			taken = hist // correlated with the previous outcome
		default:
			taken = rng.Intn(4) == 0 // biased not-taken with noise
		}
		pcs[i], takens[i], hist = pc, taken, taken
	}
	return pcs, takens
}

// TestStepBatchEquivalence pins every BatchStepper against the scalar
// Predict/Update protocol: the same stream, chopped into uneven batches
// with a mid-batch warm-up boundary, must produce the same mispredict
// counts and leave the predictor in the same state — checked by continuing
// both instances scalar-only afterwards and demanding identical
// predictions.
func TestStepBatchEquivalence(t *testing.T) {
	for _, k := range stepBatchKinds {
		t.Run(k.name, func(t *testing.T) {
			fused, scalar := k.mk(), k.mk()
			stepper, ok := fused.(BatchStepper)
			if !ok {
				t.Fatalf("%s does not implement BatchStepper", fused.Name())
			}
			pcs, takens := branchStream(20_000)
			batchSizes := []int{1, 3, 256, 17, 100, 255, 64}
			var fusedMiss, scalarMiss int64
			for off, bi := 0, 0; off < len(pcs); bi++ {
				n := batchSizes[bi%len(batchSizes)]
				if off+n > len(pcs) {
					n = len(pcs) - off
				}
				// Alternate the measured boundary through every regime:
				// fully measured, fully warm-up, split mid-batch.
				from := []int{0, n, n / 2}[bi%3]
				fusedMiss += stepper.StepBatch(pcs[off:off+n], takens[off:off+n], from)
				for i := 0; i < n; i++ {
					pred := scalar.Predict(pcs[off+i])
					scalar.Update(pcs[off+i], takens[off+i])
					if i >= from && pred != takens[off+i] {
						scalarMiss++
					}
				}
				off += n
			}
			if fusedMiss != scalarMiss {
				t.Fatalf("mispredicts diverge: StepBatch %d, scalar %d", fusedMiss, scalarMiss)
			}
			if fusedMiss == 0 {
				t.Fatal("degenerate stream: no mispredicts measured")
			}
			// State equivalence: both instances must now predict identically.
			more, moreTaken := branchStream(5_000)
			for i := range more {
				fp, sp := fused.Predict(more[i]), scalar.Predict(more[i])
				if fp != sp {
					t.Fatalf("post-batch state diverges at branch %d: fused %v, scalar %v", i, fp, sp)
				}
				fused.Update(more[i], moreTaken[i])
				scalar.Update(more[i], moreTaken[i])
			}
		})
	}
}
