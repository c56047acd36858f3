#!/usr/bin/env bash
# check.sh is the repository's full verification gate, run locally and by
# CI (.github/workflows/ci.yml): build, formatting, go vet, the custom
# bplint static-analysis suite (internal/analysis), and race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> bplint ./... (every analyzer bplint -list names, concurrency certification included)"
go run ./cmd/bplint ./...

echo "==> bplint allow audit (every waiver carries a justification)"
go run ./cmd/bplint -allows

echo "==> engine-vs-reference differential fuzz smoke (10s each: random streams, 1-4 timing lanes sharing predictor instances on issue widths 1-8 and ports 1-4, 1-3 accuracy lanes, bit-identical Results)"
go test -run '^$' -fuzz FuzzEngineVsReference -fuzztime=10s ./internal/pipeline
go test -run '^$' -fuzz FuzzEngineVsReference -fuzztime=10s ./internal/funcsim

echo "==> heavy-predictor differential fuzz smoke (10s: random perceptron/multi-component/2Bc-gskew configs, Predict/Update and StepBatch vs the naive reference)"
go test -run '^$' -fuzz FuzzPredictorVsReference -fuzztime=10s ./internal/predictor

echo "==> gshare.fast/bimode.fast step fuzz smoke (10s: StepBatch with random cycle columns and StepBlock vs the pre-FastPipe gshare.fast kept as a test-only reference)"
go test -run '^$' -fuzz FuzzStepVsReference -fuzztime=10s ./internal/core

echo "==> BPTRACE1 codec fuzz smoke (10s round-trip/fixed-point search)"
go test -run '^$' -fuzz FuzzCodecRoundTrip -fuzztime=10s ./internal/trace

echo "==> BPTRACE1 encoder fuzz smoke (10s: every decodable recording encodes byte-identically under the columnar encoder and the naive reference)"
go test -run '^$' -fuzz FuzzEncodeVsReference -fuzztime=10s ./internal/trace

echo "==> pinned streams (every profile's digest at 1/65536/65537/500000 instructions, the RNG golden vector, the columnar encoder vs the reference across chunks)"
go test -run 'TestProfileDigestsPinned' ./internal/workload
go test -run 'TestXoshiroGoldenVector|TestSplitMix64KnownValues' ./internal/rng
go test -run 'TestEncodeMatchesReference|TestDigestStableAcrossCodec' ./internal/trace

echo "==> BPCELL1 decoder fuzz smoke (10s: no panics; accepted cells match the requested key and family)"
go test -run '^$' -fuzz FuzzDecodeCell -fuzztime=10s ./internal/resultstore

echo "==> concurrency certification: -race runtime twins of the static analyzers"
# frozen: recordings are replayed concurrently with no synchronization —
# sound only if nothing writes them after publication.
go test -race -run 'TestConcurrentReplay|TestConcurrentBranchCursors' ./internal/workload ./internal/trace
# oncepublish: cell-cache entries are published under sync.Once and
# hammered from many goroutines.
go test -race -run 'TestTimingMemoConcurrentStress' ./internal/experiments
# sharedcapture: the worker pool's captured shared state, lock-dominated.
go test -race -run 'TestRunCellsSharedCaptureStress' ./internal/experiments
# singleflight: concurrent cold lookups of one cell coalesce in the cell
# cache into exactly one simulation and one store write.
go test -race -run 'TestCellCacheColdCoalesce' ./internal/experiments

echo "==> replay equivalence (live vs recorded streams, race-enabled)"
go test -race -run 'TestReplayEquivalence|TestConcurrentReplay' ./internal/workload

echo "==> accuracy engine equivalence (Run/RunMany/RunBlocks and multi-lane RunManyBlocks vs the instruction-at-a-time reference, every factory kind through the stepper BatchStepperOf resolves, Predict purity of every factory kind, the overriding batch step with a cycle column, the stepper resolver and NeedsClock, bad budgets, fused bpsim vs per-cell Run, race-enabled)"
go test -race -run 'TestFastPathEquivalence|TestRunManyEquivalence|TestRunManySingleLane|TestRunManyBlocksMatchesPerLane|TestBadBudget|TestCycleZeroSelfClocked' ./internal/funcsim
go test -race -run 'TestFactoryBatchSteppers|TestPredictIsPure' ./internal/experiments
go test -race -run 'TestOverridingBatchEquivalence|TestBatchStepperOf|TestNeedsClock' ./internal/core
go test -race -run 'TestFusedMatchesPerCell|TestBadKindFailsBeforeOutput' ./cmd/bpsim
go test -race -run 'TestBranchIndexMatchesStream|TestCodecPreservesBranchIndex|TestConcurrentBranchCursors' ./internal/trace

echo "==> timing engine equivalence (cursor/InstSource/plain Source/sidecar/memo vs the instruction-at-a-time live-cache reference, race-enabled)"
go test -race -run 'TestTimingFastPathEquivalence|TestSidecarFallback|TestSlotRingWraparound' ./internal/pipeline
go test -race -run 'TestTimingMemoEquivalence|TestTimingMemoDeduplicates|TestTimingMemoConcurrentStress' ./internal/experiments
go test -race -run 'TestNextInstsMatchesStream|TestNextInstsInterleavesWithNext|TestNextInstsProtocolMixPanics' ./internal/trace

echo "==> fused timing equivalence (RunMany with batch-stepped, clocked and instance-sharing lanes vs the reference on instances of their own, over a sidecar and over batches one shared hierarchy classifies — live generator, mid-stream cursor; packed slot words grown past their initial size, port-bound, near the 127 limit and after a jump of more than a lap, against the reference and against slotRing; geometry guard, named bad lanes (widths, ROB, port and issue limits, negative latencies and depths) and shared clocked instances, unshared value predictors, scheduler parity, one set of parts per pass, streamed ipcsim vs per-cell Sim.Run, bad run flags and a stream ending inside the warm-up, race-enabled)"
go test -race -run 'TestFusedTimingEquivalence|TestFusedTimingClassifiedEquivalence|TestFusedTimingLiveCaches|TestFusedTimingRingGrowth|TestLaneRingsMatchSlotRing|TestLaneRingsForgetALapBehind|TestFusedTimingGeometryGuard|TestInvalidLaneNamed|TestSharedClockedLaneNamed|TestValuePredictorsNeverShared|TestRunManyBadWarmup|TestRunManyStreamEndsInWarmup' ./internal/pipeline
go test -race -run 'TestNextInstsMatchesRecording' ./internal/workload
go test -race -run 'TestFusedTimingPlan|TestFusedTimingGeometryGrouping|TestFusedTimingMemoAccounting|TestFusedTimingStoreFlow|TestTimingPassesShareParts|TestOnePassPerBenchmark' ./internal/experiments
go test -race -run 'TestFusedMatchesPerCell|TestBadFlagsFailBeforeOutput' ./cmd/ipcsim
go test -race -run 'TestBadRunFlagsFailBeforeOutput' ./cmd/reproduce

echo "==> cell store equivalence + robustness (store-served cells bit-identical; corrupt/truncated/stale entries recomputed; every Config and Key field reaches the key rendering; the code digest is current and tracks the sources; a key naming other code misses; a warm run records no stream, race-enabled)"
go test -race ./internal/resultstore
go test -race -run 'TestTimingStoreEquivalence|TestTimingStoreWarmDoesNotSimulate|TestAccuracyStoreEquivalence|TestStoreKeySeparatesFamilies|TestMultiBranchWarmStore|TestRunCellsPanicKey|TestCanonicalKeyCoverage|TestCodeDigestCurrent|TestCodeDigestTracksSources|TestStoreKeyNamesCode|TestWarmRunGeneratesNothing' ./internal/experiments

echo "==> batched-loop and per-StepBatch predictor allocation bounds (every factory kind, the overriding kinds, a lag-64 gshare.fast), the timing drive loop with shared prediction columns over a sidecar and over a live generator (no race: alloc counts need a plain build)"
go test -run 'TestBatchedRunAllocs|TestRunManyAllocs' ./internal/funcsim
go test -run 'TestPredictorStepAllocs' ./internal/experiments
go test -run 'TestBatchedTimingRunAllocs|TestFusedTimingAllocs' ./internal/pipeline

echo "==> trace-layer allocation bounds (Record, Digest and ReadRecording allocate per batch, chunk or column growth, never per instruction; replay cursors allocate nothing under either protocol; no race)"
go test -run 'TestRecordAllocs|TestDigestAllocs|TestReadRecordingAllocs|TestCursorAllocs' ./internal/trace

echo "==> go test -race ./..."
go test -race ./...

echo "All checks passed."
