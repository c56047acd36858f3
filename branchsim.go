// Package branchsim is the public API of the branch-predictor simulation
// library reproducing Jiménez, "Reconsidering Complex Branch Predictors"
// (HPCA 2003). It re-exports the pieces a downstream user composes:
//
//   - Predictors: the classic baselines (bimodal, gshare, gselect, bi-mode,
//     local two-level, the Alpha 21264 tournament), the complex academic
//     predictors the paper evaluates (2Bc-gskew, Evers' multi-component
//     hybrid, the global+local perceptron), and the paper's contribution,
//     the pipelined single-cycle GShareFast.
//   - Organizations: Overriding (quick predictor backed by a slow accurate
//     one, as in the Alpha EV6/EV8 front ends).
//   - A CACTI-style DelayModel giving access latencies at an 8-FO4 clock.
//   - Twelve synthetic SPECint2000-like Workloads and the trace format.
//   - Two simulators: the functional accuracy driver and the cycle-level
//     out-of-order pipeline (Table 1 machine).
//   - The experiment registry regenerating every table and figure.
//
// Quick start:
//
//	p := branchsim.NewGShareFast(64 << 10)
//	prog := branchsim.NewWorkload(branchsim.Benchmarks()[0])
//	res := branchsim.RunAccuracy(p, prog, branchsim.AccuracyOptions{MaxInsts: 1e6})
//	fmt.Printf("%s: %.2f%% mispredicted\n", p.Name(), res.MispredictPercent())
package branchsim

import (
	"branchsim/internal/core"
	"branchsim/internal/delaymodel"
	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// Predictor is a conditional branch direction predictor: Predict(pc) then
// Update(pc, taken), strictly alternating in program order.
type Predictor = predictor.Predictor

// CycleAware predictors (GShareFast) receive the fetch-cycle clock.
type CycleAware = predictor.CycleAware

// GShareFast is the paper's pipelined single-cycle predictor (§3).
type GShareFast = core.GShareFast

// GShareFastConfig sizes a GShareFast (entries, PHT latency, update lag,
// buffer width).
type GShareFastConfig = core.Config

// Overriding is the quick+slow delay-hiding organization (§2.6.1).
type Overriding = core.Overriding

// Predictor constructors, budget-sized. Each returns the largest
// configuration of its kind fitting (approximately) the byte budget.
var (
	NewBimodal        = predictor.NewBimodalFromBudget
	NewGShare         = predictor.NewGShareFromBudget
	NewGSelect        = predictor.NewGSelectFromBudget
	NewBiMode         = predictor.NewBiModeFromBudget
	NewLocal          = predictor.NewLocalFromBudget
	NewEV6            = predictor.NewEV6FromBudget
	NewGSkew2Bc       = predictor.NewGSkew2BcFromBudget
	NewMultiComponent = predictor.NewMultiComponentFromBudget
	NewPerceptron     = predictor.NewPerceptronFromBudget
	NewYAGS           = predictor.NewYAGSFromBudget
	NewAgree          = predictor.NewAgreeFromBudget
)

// BiModeFast is the bi-mode predictor reorganized with the gshare.fast
// pipelining — the §5 future-work direction, implemented.
type BiModeFast = core.BiModeFast

// NewBiModeFast returns a pipelined bi-mode sized to budgetBytes with
// delay-model latency.
func NewBiModeFast(budgetBytes int) *BiModeFast {
	return experiments.NewBiModeFast(budgetBytes)
}

// NewGShareFast returns the paper's pipelined predictor sized to
// budgetBytes, with its PHT read latency taken from the default delay
// model.
func NewGShareFast(budgetBytes int) *GShareFast {
	return experiments.NewGShareFast(budgetBytes)
}

// NewGShareFastConfig builds a GShareFast from an explicit configuration.
func NewGShareFastConfig(cfg GShareFastConfig) *GShareFast { return core.New(cfg) }

// NewOverriding wraps slow behind quick with the given access latency.
func NewOverriding(quick, slow Predictor, latency int) *Overriding {
	return core.NewOverriding(quick, slow, latency)
}

// NewPredictorByName builds any registered predictor kind ("gshare",
// "perceptron", "gshare.fast", ...) sized to budgetBytes.
func NewPredictorByName(kind string, budgetBytes int) (Predictor, error) {
	return experiments.NewPredictor(kind, budgetBytes)
}

// PredictorKinds lists the names NewPredictorByName accepts.
func PredictorKinds() []string { return experiments.PredictorKinds() }

// DelayModel estimates SRAM access latencies in FO4 and cycles.
type DelayModel = delaymodel.Model

// DefaultDelayModel is calibrated to the paper's anchors (1K-entry PHT in
// one 8-FO4 cycle; hundreds-of-KB tables at ~9-11 cycles).
var DefaultDelayModel = delaymodel.Default

// Inst is one dynamic instruction of the synthetic ISA.
type Inst = trace.Inst

// Source produces a dynamic instruction stream: either a live synthetic
// workload or a recorded trace's replay cursor.
type Source = trace.Source

// Generator is the historical name for Source.
type Generator = trace.Generator

// BranchRec is one conditional branch of a stream, positioned by its
// 0-based instruction index — the record of the accuracy fast path.
type BranchRec = trace.BranchRec

// BranchSource batch-serves a stream's conditional branches without
// materializing the instructions between them. Replay cursors (via the
// recording's precomputed branch index) and live Workloads implement it;
// RunAccuracy and RunAccuracyBlocks detect it and switch to a batched
// inner loop with bit-identical results.
type BranchSource = trace.BranchSource

// BatchLen is the recommended NextBranches batch length.
const BatchLen = trace.BatchLen

// InstSource batch-serves a stream's instructions — the timing simulator's
// fast-path protocol. Replay cursors implement it straight from the
// recording's columnar storage; RunTiming detects it and switches to a
// batched inner loop with bit-identical results.
type InstSource = trace.InstSource

// InstBatchLen is the recommended NextInsts batch length.
const InstBatchLen = trace.InstBatchLen

// Recording is a materialized instruction stream: record a workload once,
// replay it across a whole experiment grid. Replay is bit-identical to live
// generation. Recording implements io.WriterTo (the deterministic
// varint-delta trace format); ReadTrace decodes it.
type Recording = trace.Recording

// Record drains up to maxInsts instructions from src into a Recording.
func Record(src Source, maxInsts int64) *Recording { return trace.Record(src, maxInsts) }

// RecordWorkload records a benchmark's deterministic stream.
func RecordWorkload(b Benchmark, maxInsts int64) *Recording { return workload.Record(b, maxInsts) }

// ReadTrace decodes a recording written with Recording.WriteTo.
var ReadTrace = trace.ReadRecording

// Benchmark describes one synthetic SPECint2000-like workload.
type Benchmark = workload.Profile

// Workload is an instantiated synthetic benchmark program.
type Workload = workload.Program

// Benchmarks returns the twelve benchmark profiles in SPEC order.
func Benchmarks() []Benchmark { return workload.Profiles() }

// BenchmarkByName finds a profile by name ("gzip" or "164.gzip").
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// NewWorkload instantiates a benchmark's deterministic instruction stream.
func NewWorkload(b Benchmark) *Workload { return workload.New(b) }

// AccuracyOptions configures RunAccuracy.
type AccuracyOptions = funcsim.Options

// AccuracyResult reports a functional (accuracy-only) run.
type AccuracyResult = funcsim.Result

// RunAccuracy streams a workload's branches through a predictor and counts
// mispredictions.
func RunAccuracy(p Predictor, g Generator, opts AccuracyOptions) AccuracyResult {
	return funcsim.Run(p, g, opts)
}

// AccuracyLane is one predictor's slot in a fused RunAccuracyMany sweep.
type AccuracyLane = funcsim.Lane

// RunAccuracyMany streams one trace pass through every lane's predictor at
// once — the grid-fused sweep driver — returning per-lane results
// bit-identical to per-lane RunAccuracy calls.
func RunAccuracyMany(lanes []AccuracyLane, src BranchSource, opts AccuracyOptions) []AccuracyResult {
	return funcsim.RunMany(lanes, src, opts)
}

// BlockPredictor is the block-at-a-time protocol of the multiple-branch
// extension (§3.3.1); GShareFast implements it.
type BlockPredictor = funcsim.BlockPredictor

// RunAccuracyBlocks evaluates a block predictor with up to
// opts.BlockBranches branches predicted per block from block-start history.
func RunAccuracyBlocks(p BlockPredictor, name string, g Generator, opts AccuracyOptions) AccuracyResult {
	return funcsim.RunBlocks(p, name, g, opts)
}

// MachineConfig parameterizes the cycle-level pipeline model.
type MachineConfig = pipeline.Config

// DefaultMachine returns the paper's Table 1 machine (8-wide, 20-deep,
// 64KB L1s, 2MB L2, 512-entry BTB).
func DefaultMachine() MachineConfig { return pipeline.DefaultConfig() }

// TimingResult reports a cycle-level run (IPC, misprediction and override
// rates, cache statistics).
type TimingResult = pipeline.Result

// RunTiming replays a workload through the pipeline model with the given
// predictor organization.
func RunTiming(cfg MachineConfig, p Predictor, g Generator, maxInsts, warmupInsts int64) TimingResult {
	return pipeline.New(cfg, p).Run(g, maxInsts, warmupInsts)
}

// MemSidecar is a precomputed memory-hierarchy outcome column for one
// (recording, cache geometry) pair. In trace-driven no-wrong-path timing
// the L1I/L1D/L2 access sequence is predictor-independent, so it can be
// simulated once per recording and shared by every predictor evaluated on
// it.
type MemSidecar = pipeline.MemSidecar

// NewMemSidecar simulates rec's cache-hierarchy accesses once under cfg's
// cache geometry and returns the per-instruction outcomes for RunTimingFast.
func NewMemSidecar(rec *Recording, cfg MachineConfig) *MemSidecar {
	return pipeline.BuildMemSidecar(rec, pipeline.MemGeometryOf(cfg))
}

// RunTimingFast replays a recording through the pipeline model with the
// sidecar's precomputed memory latencies, bit-identical to RunTiming over
// rec.Replay() but without re-simulating the cache hierarchy. The sidecar
// must come from NewMemSidecar(rec, cfg); one that does not cover the run
// is ignored and the live hierarchy is simulated instead.
func RunTimingFast(cfg MachineConfig, p Predictor, rec *Recording, side *MemSidecar, maxInsts, warmupInsts int64) TimingResult {
	sim := pipeline.New(cfg, p)
	sim.SetMemSidecar(side)
	return sim.Run(rec.Replay(), maxInsts, warmupInsts)
}

// TimingLane is one (machine config, predictor organization) cell of a
// fused timing sweep. Lane configs may vary pipeline shape, latencies and
// BTB freely but must share one cache geometry — RunTimingMany panics on a
// mixed batch.
type TimingLane = pipeline.Lane

// RunTimingMany replays one workload through every lane's pipeline at
// once: each instruction batch is decoded once and stepped through all
// lanes, so the trace walk, batch decode and sidecar lookups are paid once
// per sweep instead of once per cell. Results are index-aligned with lanes
// and bit-identical to running each lane alone through RunTiming /
// RunTimingFast. A nil or non-covering sidecar falls back to per-lane live
// cache simulation, still in one pass.
func RunTimingMany(lanes []TimingLane, src Source, side *MemSidecar, maxInsts, warmupInsts int64) []TimingResult {
	return pipeline.RunMany(lanes, src, side, maxInsts, warmupInsts)
}

// TimingMode selects the predictor organization for timing cells: Ideal
// gives every predictor a single-cycle response; Realistic puts complex
// predictors behind a 2K-entry quick gshare in the overriding organization.
type TimingMode = experiments.TimingMode

// Timing modes.
const (
	Ideal     = experiments.Ideal
	Realistic = experiments.Realistic
)

// TimingMemo memoizes timing Results by canonical cell key — (kind,
// organization, budget, benchmark, measurement window, machine) — so cells
// duplicated across experiment grids are simulated once. The experiment
// registry runs every figure and ablation through a process-wide cache;
// NewTimingMemo gives a custom grid its own.
type TimingMemo = experiments.TimingMemo

// NewTimingMemo returns an empty timing memo. Its Cell method resolves one
// grid cell the way the experiment grids do: recorded stream and memory
// sidecar from the process-wide trace store, Result cached in the memo and,
// when the options carry a ResultStore, persisted there.
func NewTimingMemo() *TimingMemo { return experiments.NewTimingMemo() }

// ResultStore is the persistent tier beneath the cell caches: a
// disk-backed, content-addressed store of cell results, keyed by the full
// canonical cell identity including the recorded stream's content digest
// (Recording.Digest). Set ExperimentOptions.Store to thread one through an
// experiment run; store-served cells are bit-identical to fresh
// simulation, so stdout stays byte-for-byte reproducible warm or cold.
type ResultStore = resultstore.Store

// ResultStoreStats counts a store's traffic: cells served from disk,
// computed cold, recomputed after invalidation, and written back.
type ResultStoreStats = resultstore.Stats

// OpenResultStore opens (creating if needed) a persistent result store
// rooted at dir.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// PlannedCell is one schedulable unit of an experiment grid: a canonical
// key and the closure that computes it.
type PlannedCell = experiments.PlannedCell

// RunCells executes planned cells on a worker pool of at most parallel
// goroutines — the scheduler the experiment grids shard their distinct
// cells through. A panic inside any cell is re-raised carrying that cell's
// canonical key.
func RunCells(parallel int, cells []PlannedCell) { experiments.RunCells(parallel, cells) }

// ExperimentOptions configures experiment runs.
type ExperimentOptions = experiments.Options

// Experiment is a rendered experiment outcome.
type Experiment = experiments.Outcome

// Experiments returns the registered experiment ids (one per paper table
// and figure, plus ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one table or figure by id.
func RunExperiment(id string, opts ExperimentOptions) (*Experiment, error) {
	runner, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return runner(opts), nil
}
