package funcsim

import (
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/trace/tracetest"
)

// fuzzHeader is the number of leading input bytes that pick the run shape:
// lane count, budget, warm-up, fetch width, and one predictor byte per lane.
const fuzzHeader = 4 + 3

// fuzzPredictor builds a fresh predictor from one byte: natively stepping
// table and heavy predictors, an overriding pair of them, the clocked
// lanes — the cycle-aware gshare.fast (one with a 2-bit buffer, whose rows
// depend on the clock) and bimode.fast and an overriding pair holding
// gshare.fast — and a gselect, which has no stepper of its own.
func fuzzPredictor(b byte) predictor.Predictor {
	switch b % 10 {
	case 0:
		return predictor.NewGShare(256, 0)
	case 1:
		return predictor.NewBimodalFromBudget(1 << 10)
	case 2:
		return predictor.NewBiModeFromBudget(2 << 10)
	case 3:
		return predictor.NewPerceptronFromBudget(1 << 10)
	case 4:
		return core.NewOverriding(predictor.NewGShare(64, 0), predictor.NewGSkew2BcFromBudget(1<<10), 3)
	case 5:
		return core.NewOverriding(core.New(core.Config{Entries: 1 << 8, Latency: 2}), predictor.NewGShare(256, 0), 2)
	case 6:
		return core.NewBiModeFast(core.BiModeFastConfig{DirEntries: 1 << 10, ChoiceEntries: 256, Latency: 2})
	case 7:
		return predictor.NewGSelectFromBudget(1 << 10)
	case 8:
		return core.New(core.Config{Entries: 1 << 10, Latency: 4, BufferBits: 2})
	default:
		return core.New(core.Config{Entries: 1 << 10, Latency: 3})
	}
}

// FuzzEngineVsReference decodes a random instruction stream and run shape
// from the input, runs the engine with one to three lanes — over a
// recording's branch index and over a plain Source filtered to its
// branches — and demands each lane's Result be identical to the
// reference's.
func FuzzEngineVsReference(f *testing.F) {
	for _, n := range []int{0, 40, 400, 3000} {
		seed := make([]byte, fuzzHeader+5*n)
		x := uint32(n + 7)
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
		maxInsts := max(n-int64(hdr[1])%(n+1), 1) // may cut the stream short
		opts := Options{
			MaxInsts:    maxInsts,
			WarmupInsts: int64(hdr[2]) * maxInsts / 256, // RunMany requires warmup < MaxInsts
			FetchWidth:  1 + int(hdr[3]%8),
		}
		lanes := func() []Lane {
			ls := make([]Lane, 1+int(hdr[0]%3))
			for i := range ls {
				ls[i] = Lane{P: fuzzPredictor(hdr[4+i])}
			}
			return ls
		}

		var want []Result
		for _, l := range lanes() {
			want = append(want, refRun(l.P, &tracetest.Slice{Insts: insts}, opts))
		}
		rec := trace.Record(&tracetest.Slice{Insts: insts}, n)
		runs := map[string][]Result{
			"index":    RunMany(lanes(), rec.Replay(), opts),
			"filtered": RunMany(lanes(), trace.FilterBranches(&tracetest.Slice{Insts: insts}), opts),
		}
		for name, got := range runs {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s lane %d of %d diverges from the reference:\n got %+v\nwant %+v",
						name, i, len(want), got[i], want[i])
				}
			}
		}
	})
}
