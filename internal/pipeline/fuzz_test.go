package pipeline

import (
	"reflect"
	"testing"

	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/trace/tracetest"
)

// fuzzHeader is the number of leading input bytes that pick the run shape:
// lane count, budget, warm-up, and per lane a config and a predictor.
const fuzzHeader = 3 + 2*3

// fuzzConfig derives a lane's machine from one byte. Every lane shares the
// small cache geometry (so short streams still miss at every level); the
// byte varies widths, ROB size, depth and memory latency, the knobs whose
// interaction the scoreboard arithmetic must get right.
func fuzzConfig(b byte) Config {
	cfg := DefaultConfig()
	cfg.L1I = cache.Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 1}
	cfg.L1D = cache.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}
	cfg.BTBEntries, cfg.BTBWays = 16, 2
	cfg.FetchWidth = 1 + int(b&3)
	cfg.CommitWidth = 1 + int(b>>2&3)
	cfg.ROBSize = 4 << (b >> 4 & 3)
	cfg.PipelineDepth = 6 + 6*int(b>>6&1)
	if b&0x80 != 0 {
		cfg.MemLatency = 40
	}
	return cfg
}

// fuzzPredictor builds a fresh predictor organization from one byte: an
// ideal single-cycle predictor, an overriding pair, or the cycle-aware
// gshare.fast with or without checkpointed recovery.
func fuzzPredictor(b byte) predictor.Predictor {
	switch b % 4 {
	case 0:
		return predictor.NewGShare(256, 0)
	case 1:
		return core.NewOverriding(predictor.NewGShare(64, 0), predictor.NewPerceptronFromBudget(1<<10), 3)
	case 2:
		return core.New(core.Config{Entries: 1 << 10, Latency: 3})
	default:
		return core.WithoutCheckpointing(core.New(core.Config{Entries: 1 << 10, Latency: 2}))
	}
}

// FuzzEngineVsReference decodes a random instruction stream and run shape
// from the input, runs the engine with one to three lanes — over a replay
// cursor with the memory sidecar, and over a plain Source with live caches
// — and demands each lane's Result be identical to the reference's.
func FuzzEngineVsReference(f *testing.F) {
	for _, n := range []int{0, 40, 400, 3000} {
		seed := make([]byte, fuzzHeader+5*n)
		x := uint32(n + 1)
		for i := range seed {
			x = x*1664525 + 1013904223
			seed[i] = byte(x >> 24)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		hdr, body := data[:fuzzHeader], data[fuzzHeader:]
		insts := tracetest.Decode(body)
		n := int64(len(insts))
		nLanes := 1 + int(hdr[0]%3)
		maxInsts := n - int64(hdr[1])%(n+1) // may cut the stream short
		warmup := int64(hdr[2]) * (n + 1) / 256
		lanes := func() []Lane {
			ls := make([]Lane, nLanes)
			for i := range ls {
				ls[i] = Lane{Cfg: fuzzConfig(hdr[3+2*i]), Pred: fuzzPredictor(hdr[4+2*i])}
			}
			return ls
		}

		want := make([]Result, nLanes)
		for i, l := range lanes() {
			want[i] = refRun(l.Cfg, l.Pred, &tracetest.Slice{Insts: insts}, maxInsts, warmup)
		}
		rec := trace.Record(&tracetest.Slice{Insts: insts}, n)
		side := BuildMemSidecar(rec, MemGeometryOf(fuzzConfig(0)))
		runs := map[string][]Result{
			"sidecar": RunMany(lanes(), rec.Replay(), side, maxInsts, warmup),
			"live":    RunMany(lanes(), &tracetest.Slice{Insts: insts}, nil, maxInsts, warmup),
		}
		for name, got := range runs {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s lane %d of %d diverges from the reference:\n got %+v\nwant %+v",
						name, i, nLanes, got[i], want[i])
				}
			}
		}
	})
}
