package pipeline

import (
	"reflect"
	"testing"

	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// opaqueReplay hides every protocol but Source, so the engine fills its
// batches one Next call at a time and, with no cursor to check a sidecar
// against, simulates live caches.
type opaqueReplay struct{ src trace.Source }

func (o opaqueReplay) Next(inst *trace.Inst) bool { return o.src.Next(inst) }
func (o opaqueReplay) Name() string               { return o.src.Name() }

// instSourceOnly exposes the batch protocol without being a *trace.Cursor:
// batched fill, live caches.
type instSourceOnly struct{ cur *trace.Cursor }

func (o instSourceOnly) Next(inst *trace.Inst) bool     { return o.cur.Next(inst) }
func (o instSourceOnly) NextInsts(dst []trace.Inst) int { return o.cur.NextInsts(dst) }
func (o instSourceOnly) Name() string                   { return o.cur.Name() }

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// timingOrgs are the predictor organizations the equivalence suite sweeps:
// an ideal single-cycle predictor, the overriding quick+slow organization
// (whose override bubbles interact with fetch state), and the cycle-aware
// pipelined gshare.fast (which consumes the fetch clock).
func timingOrgs() []struct {
	name string
	mk   func() predictor.Predictor
} {
	return []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"ideal-gshare-16KB", func() predictor.Predictor {
			return predictor.NewGShareFromBudget(16 << 10)
		}},
		{"override-perceptron-64KB", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				predictor.NewPerceptronFromBudget(64<<10), 4)
		}},
		{"gshare.fast-64KB", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3})
		}},
	}
}

// TestTimingFastPathEquivalence is Run's correctness contract: over a
// replay cursor, an InstSource, a plain Source, and a cursor with the
// memory-latency sidecar, Run must reproduce the reference's
// instruction-at-a-time live-cache run bit for bit — across benchmarks
// (including a stream shorter than the budget), predictor organizations,
// and warmup settings.
func TestTimingFastPathEquivalence(t *testing.T) {
	cases := []struct {
		bench    string
		recorded int64 // stream length materialized for the replay sources
	}{
		// Recording longer than the budget: the run stops at the budget.
		{"gzip", 200_000},
		{"mcf", 200_000},
		// Recording shorter than the budget: the run stops at stream end.
		{"twolf", 80_000},
	}
	const maxInsts = 150_000
	cfg := DefaultConfig()
	side := map[string]*MemSidecar{}
	for _, tc := range cases {
		rec := workload.Record(mustProfile(t, tc.bench), tc.recorded)
		side[tc.bench] = BuildMemSidecar(rec, MemGeometryOf(cfg))
		for _, org := range timingOrgs() {
			for _, warmup := range []int64{0, 40_000} {
				t.Run(tc.bench+"/"+org.name, func(t *testing.T) {
					want := refRun(cfg, org.mk(), rec.Replay(), maxInsts, warmup)

					plain := New(cfg, org.mk()).Run(opaqueReplay{rec.Replay()}, maxInsts, warmup)
					if !reflect.DeepEqual(plain, want) {
						t.Errorf("warmup %d: plain Source diverges:\n got %+v\nwant %+v", warmup, plain, want)
					}

					batched := New(cfg, org.mk()).Run(rec.Replay(), maxInsts, warmup)
					if !reflect.DeepEqual(batched, want) {
						t.Errorf("warmup %d: batched cursor diverges:\n got %+v\nwant %+v", warmup, batched, want)
					}

					iface := New(cfg, org.mk()).Run(instSourceOnly{rec.Replay()}, maxInsts, warmup)
					if !reflect.DeepEqual(iface, want) {
						t.Errorf("warmup %d: batched InstSource diverges:\n got %+v\nwant %+v", warmup, iface, want)
					}

					sim := New(cfg, org.mk())
					sim.SetMemSidecar(side[tc.bench])
					withSide := sim.Run(rec.Replay(), maxInsts, warmup)
					if !reflect.DeepEqual(withSide, want) {
						t.Errorf("warmup %d: sidecar run diverges:\n got %+v\nwant %+v", warmup, withSide, want)
					}
				})
			}
		}
	}
}

// TestSidecarFallback pins the safety rails: a sidecar precomputed under a
// different cache geometry, or presented with a mid-stream cursor, must be
// ignored in favor of the live hierarchy.
func TestSidecarFallback(t *testing.T) {
	rec := workload.Record(mustProfile(t, "gzip"), 120_000)
	mk := func() predictor.Predictor { return predictor.NewGShareFromBudget(16 << 10) }
	cfg := DefaultConfig()
	want := refRun(cfg, mk(), rec.Replay(), 120_000, 30_000)

	t.Run("geometry-mismatch", func(t *testing.T) {
		other := MemGeometryOf(cfg)
		other.L1I = cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 1}
		sim := New(cfg, mk())
		sim.SetMemSidecar(BuildMemSidecar(rec, other))
		got := sim.Run(rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mismatched-geometry sidecar was not ignored:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("mid-stream-cursor", func(t *testing.T) {
		cur := rec.Replay()
		var inst trace.Inst
		cur.Next(&inst) // cursor no longer at position 0
		sim := New(cfg, mk())
		sim.SetMemSidecar(BuildMemSidecar(rec, MemGeometryOf(cfg)))
		got := sim.Run(cur, 120_000, 30_000)
		ref := refRun(cfg, mk(), offsetReplay(rec), 120_000, 30_000)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("mid-stream cursor with sidecar diverges from live run:\n got %+v\nwant %+v", got, ref)
		}
	})

	t.Run("other-recording", func(t *testing.T) {
		other := workload.Record(mustProfile(t, "mcf"), 120_000)
		sim := New(cfg, mk())
		sim.SetMemSidecar(BuildMemSidecar(other, MemGeometryOf(cfg)))
		got := sim.Run(rec.Replay(), 120_000, 30_000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("foreign-recording sidecar was not ignored:\n got %+v\nwant %+v", got, want)
		}
	})
}

// offsetReplay returns a cursor advanced by one instruction, matching the
// mid-stream case above.
func offsetReplay(rec *trace.Recording) *trace.Cursor {
	cur := rec.Replay()
	var inst trace.Inst
	cur.Next(&inst)
	return cur
}

// TestBatchedTimingRunAllocs pins the batched+sidecar timing loop
// allocation-free at steady state through the public entry point: Run
// allocates only the engine's fixed per-call lane state, so a 5x longer
// stream must allocate exactly as much per Run as a short one. Skipped
// under -race, which instruments allocation.
func TestBatchedTimingRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prof := mustProfile(t, "gzip")
	cfg := DefaultConfig()
	measure := func(n int64) float64 {
		rec := workload.Record(prof, n)
		cur := rec.Replay()
		sim := New(cfg, predictor.NewGShareFromBudget(16<<10))
		sim.SetMemSidecar(BuildMemSidecar(rec, MemGeometryOf(cfg)))
		sim.Run(cur, n, n/5) // warm any lazy state
		return testing.AllocsPerRun(10, func() {
			cur.Reset()
			sim.Run(cur, n, n/5)
		})
	}
	allocShort, allocLong := measure(20_000), measure(100_000)
	if allocShort != allocLong {
		t.Fatalf("timing Run allocates per batch: %.1f allocs on a short stream, %.1f on a long one",
			allocShort, allocLong)
	}
}
