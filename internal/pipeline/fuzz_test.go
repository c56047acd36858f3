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

// fuzzLanes is the most lanes one fuzz run drives.
const fuzzLanes = 4

// laneHeader is the number of header bytes per lane: a config byte, a
// predictor byte, a sharing/latency byte, and the issue and port bytes
// that pick the lane's issue width and port counts.
const laneHeader = 5

// fuzzHeader is the number of leading input bytes that pick the run shape:
// lane count, budget, warm-up, and laneHeader bytes per lane.
const fuzzHeader = 3 + laneHeader*fuzzLanes

// fuzzConfig derives a lane's machine from its config, issue and port
// bytes. Every lane shares the small cache geometry (so short streams
// still miss at every level); the config byte varies widths, ROB size,
// depth and memory latency, the knobs whose interaction the scoreboard
// arithmetic must get right. The issue byte draws an issue width of 1–8
// and the port byte each port count from 1–4, so a pass mixes machines
// whose issue bandwidth binds before any port with machines whose ports
// bind first, one-wide ports among them; an issue byte with bit 7 set
// keeps Table 1's issue width and ports.
func fuzzConfig(b, issue, ports byte) Config {
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
	if issue&0x80 == 0 {
		cfg.IssueWidth = 1 + int(issue&7)
		cfg.IntPorts = 1 + int(ports&3)
		cfg.MemPorts = 1 + int(ports>>2&3)
		cfg.MulPorts = 1 + int(ports>>4&3)
		cfg.FPPorts = 1 + int(ports>>6&3)
	}
	return cfg
}

// fuzzParts is one run's pool of shareable predictor parts: lanes whose
// sharing byte asks for it take their unclocked predictors and quick
// gshare from here, so one instance can sit in several lanes, directly or
// as a pair's component.
type fuzzParts struct {
	g, m, p, s, q predictor.Predictor
}

func newFuzzParts() *fuzzParts {
	return &fuzzParts{
		g: predictor.NewGShare(256, 0),
		m: predictor.NewMultiComponentFromBudget(2 << 10),
		p: predictor.NewPerceptronFromBudget(1 << 10),
		s: predictor.NewGSkew2BcFromBudget(1 << 10),
		q: predictor.NewGShare(64, 0),
	}
}

// fuzzPredictor builds a predictor organization from byte b and sharing
// byte sh. The first four batch-step their prediction stage: ideal
// single-cycle gshare and multi-component, and overriding perceptron and
// 2Bc-gskew pairs. With sh bit 0 they take their instances from shared
// (so lanes drawing the same parts share them), and with sh bit 1 a pair's
// slow component is the multi-component, shared with any ideal
// multi-component lane. The rest are clocked lanes, always fresh, stepped
// one branch at a time at their fetch cycle: the cycle-aware gshare.fast
// with or without checkpointed recovery, one with a 2-bit buffer whose
// rows depend on the clock, and an overriding pair whose slow component is
// cycle-aware.
func fuzzPredictor(b, sh byte, shared *fuzzParts) predictor.Predictor {
	parts := shared
	if sh&1 == 0 {
		parts = newFuzzParts()
	}
	slow := func(p predictor.Predictor) predictor.Predictor {
		if sh&2 != 0 {
			return parts.m
		}
		return p
	}
	switch b % 8 {
	case 0:
		return parts.g
	case 1:
		return parts.m
	case 2:
		return core.NewOverriding(parts.q, slow(parts.p), 3)
	case 3:
		return core.NewOverriding(parts.q, slow(parts.s), 2)
	case 4:
		return core.New(core.Config{Entries: 1 << 10, Latency: 3})
	case 5:
		return core.WithoutCheckpointing(core.New(core.Config{Entries: 1 << 10, Latency: 2}))
	case 6:
		return core.New(core.Config{Entries: 1 << 10, Latency: 3, BufferBits: 2})
	default:
		return core.NewOverriding(predictor.NewGShare(64, 0), core.New(core.Config{Entries: 1 << 10, Latency: 3}), 3)
	}
}

// fuzzLane builds a lane from its laneHeader bytes h: sharing byte bit 2
// sets a memory latency of 900 cycles, long enough for chains of
// dependent misses to stretch the live window past initRing and grow the
// rings, short enough that even the largest fuzz ROB (32 entries) keeps
// it under ringSize, where the engine and the reference agree exactly.
func fuzzLane(h []byte, shared *fuzzParts) Lane {
	cfg := fuzzConfig(h[0], h[3], h[4])
	if h[2]&4 != 0 {
		cfg.MemLatency = 900
	}
	return Lane{Cfg: cfg, Pred: fuzzPredictor(h[1], h[2], shared)}
}

// FuzzEngineVsReference decodes a random instruction stream and run shape
// from the input, runs the engine with one to four lanes, which may share
// predictor instances — over a replay cursor with the memory sidecar, and
// over a plain Source the engine classifies batch by batch — and demands
// each lane's Result be identical to the reference's run of that lane
// alone on instances of its own, whose per-lane live caches are the
// oracle.
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
		nLanes := 1 + int(hdr[0]%fuzzLanes)
		maxInsts := max(n-int64(hdr[1])%(n+1), 1) // may cut the stream short
		warmup := int64(hdr[2]) * maxInsts / 256  // RunMany requires warmup < maxInsts
		lanes := func() []Lane {
			shared := newFuzzParts()
			ls := make([]Lane, nLanes)
			for i := range ls {
				ls[i] = fuzzLane(hdr[3+laneHeader*i:3+laneHeader*(i+1)], shared)
			}
			return ls
		}

		want := make([]Result, nLanes)
		for i := range want {
			l := lanes()[i]
			want[i] = refRun(l.Cfg, l.Pred, &tracetest.Slice{Insts: insts}, maxInsts, warmup)
		}
		rec := trace.Record(&tracetest.Slice{Insts: insts}, n)
		side := BuildMemSidecar(rec, MemGeometryOf(fuzzConfig(0, 0, 0)))
		runs := map[string][]Result{
			"sidecar":    RunMany(lanes(), rec.Replay(), side, maxInsts, warmup),
			"classified": RunMany(lanes(), &tracetest.Slice{Insts: insts}, nil, maxInsts, warmup),
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
