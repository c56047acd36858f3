package workload

import (
	"sync"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
)

// equivalenceBenchmarks are the streams the replay-equivalence guarantee is
// proven on: a low-noise benchmark, the pointer-chasing one, and the
// noisiest one.
var equivalenceBenchmarks = []string{"gzip", "mcf", "twolf"}

const (
	eqInsts  = 300_000
	eqWarmup = 75_000
)

func profileFor(t *testing.T, name string) Profile {
	t.Helper()
	prof, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// funcsimEqual compares every scalar field of two accuracy results
// (Result carries a map, so == does not apply).
func funcsimEqual(a, b funcsim.Result) bool {
	return a.Predictor == b.Predictor && a.Workload == b.Workload &&
		a.Insts == b.Insts && a.Branches == b.Branches &&
		a.Mispredicts == b.Mispredicts && a.TakenRate == b.TakenRate &&
		a.PredSizeByte == b.PredSizeByte
}

// TestReplayEquivalenceFuncsim asserts the record/replay guarantee for the
// accuracy simulator: a predictor driven by a replayed recording produces a
// Result bit-identical to one driven by live generation.
func TestReplayEquivalenceFuncsim(t *testing.T) {
	for _, name := range equivalenceBenchmarks {
		t.Run(name, func(t *testing.T) {
			prof := profileFor(t, name)
			opts := funcsim.Options{MaxInsts: eqInsts, WarmupInsts: eqWarmup}
			live := funcsim.Run(predictor.NewGShareFromBudget(16<<10), New(prof), opts)
			rec := Record(prof, eqInsts)
			replay := funcsim.Run(predictor.NewGShareFromBudget(16<<10), rec.Replay(), opts)
			if !funcsimEqual(live, replay) {
				t.Errorf("funcsim results differ:\nlive:   %+v\nreplay: %+v", live, replay)
			}
			if replay.Mispredicts == 0 || replay.Branches == 0 {
				t.Error("degenerate run: no branches or no mispredicts measured")
			}
		})
	}
}

// TestReplayEquivalencePipeline asserts the same for the cycle-level timing
// simulator: identical IPC, misprediction, override, cache and BTB
// statistics from live and replayed streams.
func TestReplayEquivalencePipeline(t *testing.T) {
	for _, name := range equivalenceBenchmarks {
		t.Run(name, func(t *testing.T) {
			prof := profileFor(t, name)
			mk := func() *pipeline.Sim {
				return pipeline.New(pipeline.DefaultConfig(), predictor.NewGShareFromBudget(16<<10))
			}
			live := mk().Run(New(prof), eqInsts, eqWarmup)
			rec := Record(prof, eqInsts)
			replay := mk().Run(rec.Replay(), eqInsts, eqWarmup)
			if live != replay {
				t.Errorf("pipeline results differ:\nlive:   %+v\nreplay: %+v", live, replay)
			}
			if replay.IPC() <= 0 {
				t.Error("degenerate run: nonpositive IPC")
			}
		})
	}
}

// TestReplayEquivalenceBlocks covers the block-at-a-time protocol used by
// the multiple-branch experiment.
func TestReplayEquivalenceBlocks(t *testing.T) {
	prof := profileFor(t, "gzip")
	opts := funcsim.Options{MaxInsts: eqInsts, WarmupInsts: eqWarmup, FetchWidth: 8, BlockBranches: 4}
	mk := func() *predictor.GShare { return predictor.NewGShareFromBudget(16 << 10) }
	live := funcsim.RunBlocks(blockAdapter{mk()}, "blk", New(prof), opts)
	rec := Record(prof, eqInsts)
	replay := funcsim.RunBlocks(blockAdapter{mk()}, "blk", rec.Replay(), opts)
	if !funcsimEqual(live, replay) {
		t.Errorf("block results differ:\nlive:   %+v\nreplay: %+v", live, replay)
	}
}

// blockAdapter drives a scalar predictor through the block protocol: all
// of a block's predictions first, then its updates.
type blockAdapter struct{ p predictor.Predictor }

func (a blockAdapter) StepBlock(pcs []uint64, takens, preds []bool) {
	for i, pc := range pcs {
		preds[i] = a.p.Predict(pc)
	}
	for i, pc := range pcs {
		a.p.Update(pc, takens[i])
	}
}

// TestConcurrentReplay exercises many goroutines replaying one shared
// recording simultaneously (run under -race by scripts/check.sh): cursors
// must be independent and every replica must reproduce identical results.
func TestConcurrentReplay(t *testing.T) {
	prof := profileFor(t, "twolf")
	rec := Record(prof, 100_000)

	const workers = 8
	results := make([]funcsim.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = funcsim.Run(predictor.NewGShareFromBudget(8<<10), rec.Replay(),
				funcsim.Options{MaxInsts: 100_000, WarmupInsts: 25_000})
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !funcsimEqual(results[w], results[0]) {
			t.Fatalf("worker %d result differs: %+v vs %+v", w, results[w], results[0])
		}
	}
}
