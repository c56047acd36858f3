package experiments

import (
	"math"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/workload"
)

// Integration tests crossing workload ↔ predictor ↔ simulators at reduced
// scale. These assert the *relationships* the paper's results rest on; the
// full-scale numbers live in EXPERIMENTS.md.

// meanRate runs one predictor kind over all benchmarks.
func meanRate(t *testing.T, kind string, budget int, insts int64) float64 {
	return meanRateWarm(t, kind, budget, insts, insts/4)
}

func meanRateWarm(t *testing.T, kind string, budget int, insts, warmup int64) float64 {
	t.Helper()
	var rates []float64
	for _, prof := range workload.Profiles() {
		p, err := NewPredictor(kind, budget)
		if err != nil {
			t.Fatal(err)
		}
		res := funcsim.Run(p, workload.New(prof), funcsim.Options{
			MaxInsts:    insts,
			WarmupInsts: warmup,
		})
		rates = append(rates, res.MispredictPercent())
	}
	return stats.Mean(rates)
}

func TestPerceptronMostAccurate(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-suite sweep")
	}
	const insts = 1_000_000
	perc := meanRate(t, "perceptron", 64<<10, insts)
	fast := meanRate(t, "gshare.fast", 64<<10, insts)
	if perc >= fast {
		t.Fatalf("perceptron (%.2f%%) should beat gshare.fast (%.2f%%) in accuracy", perc, fast)
	}
}

func TestAccuracyImprovesWithBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-suite sweep")
	}
	// Aliasing pressure needs a tiny table to show up at test scale; the
	// full sweep in EXPERIMENTS.md covers the 16KB-512KB range.
	const insts = 2_000_000
	small := meanRateWarm(t, "gshare.fast", 2<<10, insts, insts/2)
	large := meanRateWarm(t, "gshare.fast", 128<<10, insts, insts/2)
	if large >= small {
		t.Fatalf("gshare.fast did not improve with budget: %.2f%% -> %.2f%%", small, large)
	}
}

func TestDynamicPredictorsBeatStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-suite sweep")
	}
	const insts = 500_000
	static := meanRate(t, "taken", 0, insts)
	dynamic := meanRate(t, "gshare", 16<<10, insts)
	if dynamic >= static/2 {
		t.Fatalf("gshare (%.2f%%) should be far better than always-taken (%.2f%%)", dynamic, static)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	opts := Options{Insts: 120_000, Warmup: 30_000, Parallel: 2}
	a := runOne(t, "figure6", opts)
	b := runOne(t, "figure6", opts)
	ta, tb := a.Tables[0], b.Tables[0]
	for i := range ta.Values {
		for j := range ta.Values[i] {
			if ta.Values[i][j] != tb.Values[i][j] {
				t.Fatalf("nondeterministic cell (%d,%d): %v vs %v",
					i, j, ta.Values[i][j], tb.Values[i][j])
			}
		}
	}
}

func TestOverrideRatesConsistentWithAccuracies(t *testing.T) {
	// The override rate of quick+slow must be at least |quickMR - slowMR|
	// and at most quickMR + slowMR (disagreement bounds).
	prof, _ := workload.ByName("parser")
	const insts = 400_000
	o, err := NewOverriding("perceptron", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	res := funcsim.Run(o, workload.New(prof), funcsim.Options{MaxInsts: insts})
	quick := funcsim.Run(predictor.NewGShare(QuickEntries, 0), workload.New(prof),
		funcsim.Options{MaxInsts: insts})
	slow, _ := NewPredictor("perceptron", 64<<10)
	slowRes := funcsim.Run(slow, workload.New(prof), funcsim.Options{MaxInsts: insts})

	rate := o.OverrideRate()
	lo := math.Abs(quick.MispredictRate() - slowRes.MispredictRate())
	hi := quick.MispredictRate() + slowRes.MispredictRate()
	if rate < lo-1e-9 || rate > hi+1e-9 {
		t.Fatalf("override rate %.4f outside disagreement bounds [%.4f, %.4f]", rate, lo, hi)
	}
	// The overriding organization's accuracy equals the slow predictor's
	// (same predictor, same stream).
	if res.Mispredicts != slowRes.Mispredicts {
		t.Fatalf("overriding mispredicts %d != slow alone %d", res.Mispredicts, slowRes.Mispredicts)
	}
}

func TestGShareFastBudgetLatencyCoupling(t *testing.T) {
	// Bigger gshare.fast tables must come with deeper (slower-to-read)
	// PHT pipelines from the delay model.
	small := NewGShareFast(16 << 10)
	large := NewGShareFast(512 << 10)
	if large.Latency() <= small.Latency() {
		t.Fatalf("PHT read latency should grow: %d -> %d", small.Latency(), large.Latency())
	}
	if large.Entries() <= small.Entries() {
		t.Fatal("entries should grow with budget")
	}
}
