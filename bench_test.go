// Benchmarks regenerating the paper's tables and figures (one per table and
// figure, per DESIGN.md's experiment index), plus ablations and predictor
// micro-benchmarks.
//
// Each experiment benchmark runs its full pipeline at a reduced instruction
// budget so `go test -bench=.` stays tractable; custom metrics report the
// headline numbers (mean misprediction %, harmonic-mean IPC). The
// full-resolution results in EXPERIMENTS.md come from `cmd/reproduce`,
// which runs the same code at 8M instructions per benchmark.
package branchsim_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"branchsim"
)

// benchOpts scales experiments down for benchmarking.
var benchOpts = branchsim.ExperimentOptions{Insts: 400_000, Warmup: 100_000}

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) *branchsim.Experiment {
	b.Helper()
	var out *branchsim.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		out, err = branchsim.RunExperiment(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// reportCell publishes one result cell as a benchmark metric.
func reportCell(b *testing.B, out *branchsim.Experiment, tablePrefix string, row, col int, metric string) {
	b.Helper()
	tab := out.Table(tablePrefix)
	if tab == nil {
		b.Fatalf("table %q missing", tablePrefix)
	}
	if row < 0 {
		row = len(tab.Rows) + row
	}
	b.ReportMetric(tab.Values[row][col], metric)
}

// BenchmarkFigure1 regenerates Figure 1: mean misprediction vs budget for
// gshare, bi-mode, multi-component and perceptron (2KB-512KB).
func BenchmarkFigure1(b *testing.B) {
	out := runExperiment(b, "figure1")
	reportCell(b, out, "Figure 1", -1, 3, "perceptron@512K-misp%")
	reportCell(b, out, "Figure 1", -1, 0, "gshare@512K-misp%")
}

// BenchmarkTable2 regenerates Table 2: predictor access latencies from the
// delay model.
func BenchmarkTable2(b *testing.B) {
	out := runExperiment(b, "table2")
	reportCell(b, out, "Table 2", -1, 2, "perceptron@512K-cycles")
}

// BenchmarkFigure2 regenerates Figure 2: ideal vs realistic IPC for the
// perceptron and multi-component predictors.
func BenchmarkFigure2(b *testing.B) {
	out := runExperiment(b, "figure2")
	reportCell(b, out, "Figure 2 (ideal)", -1, 0, "perceptron@512K-ideal-IPC")
	reportCell(b, out, "Figure 2 (realistic)", -1, 0, "perceptron@512K-real-IPC")
}

// BenchmarkFigure5 regenerates Figure 5: mean misprediction for the complex
// predictors and gshare.fast, 16KB-512KB.
func BenchmarkFigure5(b *testing.B) {
	out := runExperiment(b, "figure5")
	reportCell(b, out, "Figure 5", -1, 3, "gshare.fast@512K-misp%")
	reportCell(b, out, "Figure 5", -1, 2, "perceptron@512K-misp%")
}

// BenchmarkFigure6 regenerates Figure 6: per-benchmark misprediction rates
// at the 53-64KB design point.
func BenchmarkFigure6(b *testing.B) {
	out := runExperiment(b, "figure6")
	reportCell(b, out, "Figure 6", -1, 3, "gshare.fast-mean-misp%")
}

// BenchmarkFigure7 regenerates Figure 7: harmonic-mean IPC with 1-cycle and
// overriding prediction across budgets.
func BenchmarkFigure7(b *testing.B) {
	out := runExperiment(b, "figure7")
	reportCell(b, out, "Figure 7 (right)", -1, 3, "gshare.fast@512K-IPC")
	reportCell(b, out, "Figure 7 (right)", -1, 2, "perceptron@512K-IPC")
}

// BenchmarkFigure8 regenerates Figure 8: per-benchmark IPC at the 53-64KB
// design point under overriding timing.
func BenchmarkFigure8(b *testing.B) {
	out := runExperiment(b, "figure8")
	reportCell(b, out, "Figure 8", -1, 3, "gshare.fast-hmean-IPC")
}

// BenchmarkDelayedUpdate regenerates the §3.2 delayed-PHT-update ablation.
func BenchmarkDelayedUpdate(b *testing.B) {
	out := runExperiment(b, "delayedupdate")
	reportCell(b, out, "Delayed PHT update", 0, 0, "lag0-misp%")
	reportCell(b, out, "Delayed PHT update", 2, 0, "lag64-misp%")
}

// BenchmarkOverrideRate regenerates the §4.5 override-rate accounting.
func BenchmarkOverrideRate(b *testing.B) {
	out := runExperiment(b, "overriderate")
	reportCell(b, out, "Override rates", -1, 2, "perceptron-mean-override%")
}

// BenchmarkMultiBranch regenerates the §3.3.1 multiple-branch experiment.
func BenchmarkMultiBranch(b *testing.B) {
	out := runExperiment(b, "multibranch")
	reportCell(b, out, "Multiple-branch", 0, 0, "b1-misp%")
	reportCell(b, out, "Multiple-branch", 3, 0, "b8-misp%")
}

// BenchmarkBufferSweep runs the PHT-buffer-split ablation.
func BenchmarkBufferSweep(b *testing.B) {
	runExperiment(b, "buffersweep")
}

// BenchmarkQuickSweep runs the quick-predictor-size ablation.
func BenchmarkQuickSweep(b *testing.B) {
	runExperiment(b, "quicksweep")
}

// BenchmarkDepthSweep runs the pipeline-depth ablation.
func BenchmarkDepthSweep(b *testing.B) {
	out := runExperiment(b, "depthsweep")
	reportCell(b, out, "Pipeline depth", -1, 0, "depth40-gshare.fast-IPC")
}

// --- Predictor micro-benchmarks: cost per predict+update. ---

func benchPredictor(b *testing.B, p branchsim.Predictor) {
	b.Helper()
	bench, _ := branchsim.BenchmarkByName("gzip")
	w := branchsim.NewWorkload(bench)
	var inst branchsim.Inst
	b.ResetTimer()
	n := 0
	for n < b.N {
		if !w.Next(&inst) {
			b.Fatal("stream ended")
		}
		if !inst.IsBranch() {
			continue
		}
		pred := p.Predict(inst.PC)
		p.Update(inst.PC, inst.Taken)
		_ = pred
		n++
	}
}

func BenchmarkPredictGShare(b *testing.B) {
	benchPredictor(b, branchsim.NewGShare(64<<10))
}

func BenchmarkPredictGShareFast(b *testing.B) {
	benchPredictor(b, branchsim.NewGShareFast(64<<10))
}

func BenchmarkPredictPerceptron(b *testing.B) {
	benchPredictor(b, branchsim.NewPerceptron(64<<10))
}

func BenchmarkPredictMultiComponent(b *testing.B) {
	benchPredictor(b, branchsim.NewMultiComponent(64<<10))
}

func BenchmarkPredict2BcGskew(b *testing.B) {
	benchPredictor(b, branchsim.NewGSkew2Bc(64<<10))
}

// BenchmarkWorkloadGeneration measures raw trace-generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	w := branchsim.NewWorkload(bench)
	var inst branchsim.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next(&inst)
	}
}

// --- Record/replay trace-layer benchmarks (scripts/bench.sh →
// BENCH_trace.json). GenerateStream vs ReplayStream is the per-instruction
// comparison; the AccuracySweep pair is the grid-level one the tentpole
// optimizes: one benchmark stream consumed by several predictor cells,
// either regenerated per cell or recorded once and replayed. ---

// BenchmarkGenerateStream measures per-instruction cost of live synthesis.
func BenchmarkGenerateStream(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	w := branchsim.NewWorkload(bench)
	var inst branchsim.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next(&inst)
	}
}

// BenchmarkReplayStream measures per-instruction cost of replaying a
// recording of the same stream.
func BenchmarkReplayStream(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, 1_000_000)
	cur := rec.Replay()
	var inst branchsim.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cur.Next(&inst) {
			cur = rec.Replay()
			cur.Next(&inst)
		}
	}
}

// sweepKinds and sweepInsts shape the sweep benchmarks: six predictor
// cells over one benchmark, the per-benchmark slice of a Figure 1/5 grid.
var sweepKinds = []string{"gshare", "bimode", "local", "2bcgskew", "perceptron", "gshare.fast"}

const sweepInsts = 200_000

func sweepCell(b *testing.B, kind string, src branchsim.Source) {
	b.Helper()
	p, err := branchsim.NewPredictorByName(kind, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	res := branchsim.RunAccuracy(p, src, branchsim.AccuracyOptions{MaxInsts: sweepInsts})
	if res.Branches == 0 {
		b.Fatal("degenerate sweep cell: no branches")
	}
}

// BenchmarkAccuracySweepRegenerate is the pre-refactor data path: every
// predictor cell re-synthesizes the benchmark stream.
func BenchmarkAccuracySweepRegenerate(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	for i := 0; i < b.N; i++ {
		for _, kind := range sweepKinds {
			sweepCell(b, kind, branchsim.NewWorkload(bench))
		}
	}
}

// BenchmarkAccuracySweepReplay is the record/replay data path as the
// experiment grid actually runs it: the stream is recorded once in setup —
// the process-wide trace store records each benchmark once per process and
// replays it for every (predictor, budget) cell, so recording amortizes to
// ~zero across a real grid's dozens of cells — and every cell replays it
// through the batched branch fast path (the replay cursor implements
// BranchSource). scripts/bench.sh compares this against the PR 2 baseline
// and against the SlowPath twin below in BENCH_branchreplay.json.
func BenchmarkAccuracySweepReplay(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, sweepInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range sweepKinds {
			sweepCell(b, kind, rec.Replay())
		}
	}
}

// opaqueReplay hides every protocol but Source: the simulators drain it
// one Next call at a time (the accuracy engine through trace.FilterBranches)
// and, with no cursor to check a sidecar against, the timing engine
// simulates live caches.
type opaqueReplay struct{ src branchsim.Source }

func (o opaqueReplay) Next(inst *branchsim.Inst) bool { return o.src.Next(inst) }
func (o opaqueReplay) Name() string                   { return o.src.Name() }

// BenchmarkAccuracySweepReplaySlowPath is the identical sweep through a
// plain Source: same recording, same cells, same engine, but every replayed
// instruction is materialized and filtered instead of read from the branch
// index. The ratio of this to BenchmarkAccuracySweepReplay is the
// sweep_speedup of BENCH_branchreplay.json.
func BenchmarkAccuracySweepReplaySlowPath(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, sweepInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range sweepKinds {
			sweepCell(b, kind, opaqueReplay{rec.Replay()})
		}
	}
}

// --- Grid-fusion benchmarks (scripts/bench.sh → BENCH_fusion.json).
// One benchmark's column of a classic-predictor budget grid — the
// cheap-table-lane regime grid fusion targets: per-branch work is a couple
// of table accesses, so per-cell stream walks and per-branch interface
// dispatch dominate. Fused runs the column as the experiment layer now
// does: every 256-entry branch batch pulled once and fed to all lanes,
// cheap lanes stepping through it with one BatchStepper call per batch.
// PerCell is the identical column down the path fusion replaced: one full
// batched replay per cell. Heavy lanes (perceptron, multi-component) are
// compute-bound and gain only the shared fill; they are benchmarked by the
// experiment benchmarks above, not gated here. ---

// fusionLaneKinds and fusionBudgets shape the fused gate column: the
// classic table predictors across the Figure 1 budget axis.
var fusionLaneKinds = []string{"gshare", "bimode", "bimodal"}

var fusionBudgets = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}

func fusionLanes(b *testing.B) []branchsim.AccuracyLane {
	b.Helper()
	var lanes []branchsim.AccuracyLane
	for _, kind := range fusionLaneKinds {
		for _, budget := range fusionBudgets {
			p, err := branchsim.NewPredictorByName(kind, budget)
			if err != nil {
				b.Fatal(err)
			}
			lanes = append(lanes, branchsim.AccuracyLane{P: p})
		}
	}
	return lanes
}

// BenchmarkFusedSweep runs the column through RunAccuracyMany: one trace
// pass for the whole grid column.
func BenchmarkFusedSweep(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, sweepInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lanes := fusionLanes(b)
		res := branchsim.RunAccuracyMany(lanes, rec.Replay(), branchsim.AccuracyOptions{MaxInsts: sweepInsts})
		if len(res) != len(lanes) || res[0].Branches == 0 {
			b.Fatal("degenerate fused sweep")
		}
	}
}

// BenchmarkFusedSweepPerCell is the identical column down the per-cell
// path: every lane replays the recording itself through RunAccuracy, as
// the accuracy grids did before fusion. The ratio of this to
// BenchmarkFusedSweep is the fused_speedup gate of BENCH_fusion.json.
func BenchmarkFusedSweepPerCell(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, sweepInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lane := range fusionLanes(b) {
			res := branchsim.RunAccuracy(lane.P, rec.Replay(), branchsim.AccuracyOptions{MaxInsts: sweepInsts})
			if res.Branches == 0 {
				b.Fatal("degenerate sweep cell")
			}
		}
	}
}

// BenchmarkBranchBatchFill measures raw branch-index replay throughput:
// the cost per branch of filling BranchRec batches from a recording, with
// no predictor behind it. Compare BenchmarkReplayStream (per instruction)
// times the branch density to see what the index skips.
func BenchmarkBranchBatchFill(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, 1_000_000)
	cur := rec.Replay()
	var batch [branchsim.BatchLen]branchsim.BranchRec
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := cur.NextBranches(batch[:])
		if k == 0 {
			cur.Reset()
			continue
		}
		n += k
	}
}

// BenchmarkPipelineSimulation measures timing-simulator throughput
// (instructions per op).
func BenchmarkPipelineSimulation(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("eon")
	for i := 0; i < b.N; i++ {
		pred := branchsim.NewGShareFast(64 << 10)
		branchsim.RunTiming(branchsim.DefaultMachine(), pred, branchsim.NewWorkload(bench), 100_000, 0)
	}
}

// --- Timing fast-path benchmarks (scripts/bench.sh → BENCH_timing.json).
// The sweep is one benchmark's design-point column of the real timing grid:
// the cells Figures 2, 7 (both halves), 8 and the override-rate ablation
// each visit at the 64KB budget, duplicates included. Fast runs it as
// cmd/reproduce now does — stream recorded once, cache hierarchy simulated
// once into a memory sidecar, every cell a batched replay, duplicate cells
// served from the timing memo. Slow runs the identical cell list the way
// the fast path avoids: every cell simulated independently, each
// instruction pulled through the Source interface, with the full cache
// hierarchy live. ---

// timingGridCells is the design-point cell column: 19 grid visits, 9
// distinct simulations. Figure 7's ideal perceptron repeats Figure 2's,
// Figure 8 revisits Figure 7's overriding row per benchmark, the
// override-rate ablation recounts the realistic cells, and gshare.fast's
// organization is mode-invariant.
var timingGridCells = []struct {
	kind string
	mode branchsim.TimingMode
}{
	// Figure 2: ideal vs realistic, perceptron and multi-component.
	{"perceptron", branchsim.Ideal}, {"multicomponent", branchsim.Ideal},
	{"perceptron", branchsim.Realistic}, {"multicomponent", branchsim.Realistic},
	// Figure 7 left: 1-cycle idealization of the four contenders.
	{"multicomponent", branchsim.Ideal}, {"2bcgskew", branchsim.Ideal},
	{"perceptron", branchsim.Ideal}, {"gshare.fast", branchsim.Ideal},
	// Figure 7 right: the same contenders in the overriding organization.
	{"multicomponent", branchsim.Realistic}, {"2bcgskew", branchsim.Realistic},
	{"perceptron", branchsim.Realistic}, {"gshare.fast", branchsim.Realistic},
	// Figure 8: per-benchmark IPC at the design point — the overriding
	// row again for this benchmark.
	{"multicomponent", branchsim.Realistic}, {"2bcgskew", branchsim.Realistic},
	{"perceptron", branchsim.Realistic}, {"gshare.fast", branchsim.Realistic},
	// Override-rate ablation: recounts the complex realistic cells.
	{"multicomponent", branchsim.Realistic}, {"2bcgskew", branchsim.Realistic},
	{"perceptron", branchsim.Realistic},
}

const (
	timingSweepBudget = 64 << 10
	timingSweepInsts  = 150_000
	timingSweepWarmup = 37_500
)

// timingGridOrg mirrors the experiment layer's cell construction through
// the public facade: Ideal is the bare budget-sized predictor, Realistic
// puts it behind a small quick gshare in the overriding organization, and
// the pipelined gshare.fast is its own organization in both modes.
func timingGridOrg(b *testing.B, kind string, mode branchsim.TimingMode) branchsim.Predictor {
	b.Helper()
	if kind == "gshare.fast" {
		return branchsim.NewGShareFast(timingSweepBudget)
	}
	p, err := branchsim.NewPredictorByName(kind, timingSweepBudget)
	if err != nil {
		b.Fatal(err)
	}
	if mode == branchsim.Ideal {
		return p
	}
	return branchsim.NewOverriding(branchsim.NewGShare(512), p, 4)
}

func timingSweepCell(b *testing.B, res branchsim.TimingResult) {
	b.Helper()
	if res.Insts == 0 || res.Cycles == 0 {
		b.Fatal("degenerate timing cell: no measured instructions")
	}
}

// BenchmarkTimingSweepFast times the grid column on the fast path: the
// process-wide trace store's recording and memory sidecar are warmed in
// setup (one recording pass and one cache simulation serve every cell, as
// across a real grid's hundreds), each iteration runs the 19 cells through
// a fresh timing memo so the 10 duplicates are served from memory and the
// 9 distinct cells replay through the batched sidecar loop.
func BenchmarkTimingSweepFast(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	opts := branchsim.ExperimentOptions{Insts: timingSweepInsts, Warmup: timingSweepWarmup, Parallel: 1}
	branchsim.NewTimingMemo().Cell("gshare", timingSweepBudget, branchsim.Ideal, bench, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo := branchsim.NewTimingMemo()
		for _, cell := range timingGridCells {
			timingSweepCell(b, memo.Cell(cell.kind, timingSweepBudget, cell.mode, bench, opts))
		}
	}
}

// BenchmarkTimingSweepSlow is the identical cell list through a plain
// Source: every cell simulated independently (no memo), every instruction
// filled into the engine's batch by one Next call, the cache hierarchy
// simulated live per cell. The ratio of this to BenchmarkTimingSweepFast is
// the fastpath speedup of BENCH_timing.json.
func BenchmarkTimingSweepSlow(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	cfg := branchsim.DefaultMachine()
	rec := branchsim.RecordWorkload(bench, timingSweepInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cell := range timingGridCells {
			org := timingGridOrg(b, cell.kind, cell.mode)
			timingSweepCell(b, branchsim.RunTiming(cfg, org, opaqueReplay{rec.Replay()}, timingSweepInsts, timingSweepWarmup))
		}
	}
}

// --- Fused-timing benchmarks (scripts/bench.sh → BENCH_timingfusion.json).
// One benchmark's column of a depth-sweep timing grid: machine depth
// variants × the classic table predictors, all on the default cache
// geometry — the regime timing fusion targets, where per-lane predictor
// work is a couple of table accesses and the per-cell trace walk, batch
// decode and sidecar lookups dominate. Heavy lanes (overriding perceptron)
// are compute-bound and amortize nothing but the shared walk; they ride
// the experiment benchmarks above, not this gate. ---

// timingFusionLanes is the gate column: depths {10,20,30,40} off the
// Table 1 machine (shared cache geometry), each swept over gshare budgets
// {4K,16K,64K} — a 12-lane column.
func timingFusionLanes(b *testing.B) []branchsim.TimingLane {
	b.Helper()
	var lanes []branchsim.TimingLane
	for _, depth := range []int{10, 20, 30, 40} {
		cfg := branchsim.DefaultMachine()
		cfg.PipelineDepth = depth
		cfg.FrontEndDepth = depth / 2
		for _, budget := range []int{4 << 10, 16 << 10, 64 << 10} {
			p, err := branchsim.NewPredictorByName("gshare", budget)
			if err != nil {
				b.Fatal(err)
			}
			lanes = append(lanes, branchsim.TimingLane{Cfg: cfg, Pred: p})
		}
	}
	return lanes
}

// BenchmarkFusedTimingSweep runs the column through RunTimingMany: one
// trace pass and one sidecar feed every pipeline configuration.
func BenchmarkFusedTimingSweep(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, timingSweepInsts)
	side := branchsim.NewMemSidecar(rec, branchsim.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lanes := timingFusionLanes(b)
		res := branchsim.RunTimingMany(lanes, rec.Replay(), side, timingSweepInsts, timingSweepWarmup)
		if len(res) != len(lanes) {
			b.Fatal("degenerate fused timing sweep")
		}
		for _, r := range res {
			timingSweepCell(b, r)
		}
	}
}

// BenchmarkFusedTimingSweepPerCell is the identical column down the
// per-cell path fusion replaced: every lane replays the recording itself
// through RunTimingFast (sidecar warm — this is the fast path of
// BENCH_timing.json, not the live-cache slow path). The ratio of this to
// BenchmarkFusedTimingSweep is the fused_speedup gate of
// BENCH_timingfusion.json.
func BenchmarkFusedTimingSweepPerCell(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	rec := branchsim.RecordWorkload(bench, timingSweepInsts)
	side := branchsim.NewMemSidecar(rec, branchsim.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lane := range timingFusionLanes(b) {
			timingSweepCell(b, branchsim.RunTimingFast(lane.Cfg, lane.Pred, rec, side, timingSweepInsts, timingSweepWarmup))
		}
	}
}

// --- Cell store + scheduler benchmarks (scripts/bench.sh → BENCH_grid.json).
// The same design-point column as the timing sweep above, but exercised
// through the persistence and planner layers: a cold run simulates every
// distinct cell and writes it back to a fresh result store; a warm run opens
// a second store over the same directory through a fresh memo (a second
// process's view, so every cell must come off disk) and
// serves the whole column without simulating. The sharded/serial pair runs
// the identical distinct-cell plan through the worker-pool scheduler at
// GOMAXPROCS vs one worker. ---

// gridDistinctCells is timingGridCells with the duplicates removed: the 7
// distinct simulations behind the 19 grid visits (gshare.fast's organization
// is mode-invariant, so it appears once).
var gridDistinctCells = []struct {
	kind string
	mode branchsim.TimingMode
}{
	{"perceptron", branchsim.Ideal}, {"perceptron", branchsim.Realistic},
	{"multicomponent", branchsim.Ideal}, {"multicomponent", branchsim.Realistic},
	{"2bcgskew", branchsim.Ideal}, {"2bcgskew", branchsim.Realistic},
	{"gshare.fast", branchsim.Ideal},
}

func gridOpts(store *branchsim.ResultStore) branchsim.ExperimentOptions {
	return branchsim.ExperimentOptions{
		Insts:    timingSweepInsts,
		Warmup:   timingSweepWarmup,
		Parallel: 1,
		Store:    store,
	}
}

// runGridColumn runs the distinct-cell column through a fresh memo, so every
// cell reaches the store (or the simulator) rather than the in-memory tier.
func runGridColumn(b *testing.B, bench branchsim.Benchmark, opts branchsim.ExperimentOptions) {
	b.Helper()
	memo := branchsim.NewTimingMemo()
	for _, cell := range gridDistinctCells {
		timingSweepCell(b, memo.Cell(cell.kind, timingSweepBudget, cell.mode, bench, opts))
	}
}

// BenchmarkGridColdStore measures the cold cost cmd/reproduce pays on a
// first run: every cell fully simulated plus written back to a brand-new
// store directory. The trace store and memory sidecar are warmed in setup,
// as across a real grid.
func BenchmarkGridColdStore(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	branchsim.NewTimingMemo().Cell("gshare", timingSweepBudget, branchsim.Ideal, bench, gridOpts(nil))
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := branchsim.OpenResultStore(filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			b.Fatal(err)
		}
		runGridColumn(b, bench, gridOpts(st))
	}
}

// BenchmarkGridWarmStore measures the warm cost of the same column: the
// store is populated once in setup, and each iteration opens a fresh Store
// over that directory and serves every cell from disk — no cell simulates.
// The ratio of BenchmarkGridColdStore to this is the warm_speedup gate of
// BENCH_grid.json.
func BenchmarkGridWarmStore(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	dir := b.TempDir()
	st0, err := branchsim.OpenResultStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	runGridColumn(b, bench, gridOpts(st0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := branchsim.OpenResultStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		runGridColumn(b, bench, gridOpts(st))
		if s := st.Stats(); s.Misses != 0 || s.Invalidations != 0 {
			b.Fatalf("warm iteration simulated: %+v", s)
		}
	}
}

// runGridPlan runs the distinct-cell column as the planner layer does: each
// cell a PlannedCell executed by the worker-pool scheduler. A fresh memo per
// call keeps every cell a real simulation.
func runGridPlan(b *testing.B, bench branchsim.Benchmark, parallel int) {
	memo := branchsim.NewTimingMemo()
	opts := gridOpts(nil)
	cells := make([]branchsim.PlannedCell, 0, len(gridDistinctCells))
	for _, cell := range gridDistinctCells {
		cells = append(cells, branchsim.PlannedCell{
			Key: fmt.Sprintf("timing|kind=%s|org=%d|budget=%d|bench=%s", cell.kind, cell.mode, timingSweepBudget, bench.Name),
			Run: func() {
				// b.Fatal must not run on a worker goroutine; Error is safe.
				if res := memo.Cell(cell.kind, timingSweepBudget, cell.mode, bench, opts); res.Insts == 0 || res.Cycles == 0 {
					b.Error("degenerate timing cell: no measured instructions")
				}
			},
		})
	}
	branchsim.RunCells(parallel, cells)
}

// BenchmarkGridSharded runs the distinct-cell plan on the worker-pool
// scheduler at GOMAXPROCS workers — how cmd/reproduce shards a grid.
func BenchmarkGridSharded(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	branchsim.NewTimingMemo().Cell("gshare", timingSweepBudget, branchsim.Ideal, bench, gridOpts(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGridPlan(b, bench, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkGridSerial is the identical plan on one worker. On a multi-core
// machine sharded/serial is the scheduler's speedup; on one core the gate
// degrades to no-regression (scripts/bench.sh picks the bound by core
// count).
func BenchmarkGridSerial(b *testing.B) {
	bench, _ := branchsim.BenchmarkByName("gcc")
	branchsim.NewTimingMemo().Cell("gshare", timingSweepBudget, branchsim.Ideal, bench, gridOpts(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGridPlan(b, bench, 1)
	}
}

// BenchmarkFastFamily runs the §5 pipelined-family study.
func BenchmarkFastFamily(b *testing.B) {
	out := runExperiment(b, "fastfamily")
	reportCell(b, out, "Pipelined predictor family", 1, 1, "bimode.fast-IPC")
}

func BenchmarkPredictBiModeFast(b *testing.B) {
	benchPredictor(b, branchsim.NewBiModeFast(64<<10))
}

func BenchmarkPredictYAGS(b *testing.B) {
	benchPredictor(b, branchsim.NewYAGS(64<<10))
}

// BenchmarkRecovery runs the §3.2 checkpointing-value ablation.
func BenchmarkRecovery(b *testing.B) {
	out := runExperiment(b, "recovery")
	reportCell(b, out, "Misprediction recovery", -1, 0, "ckpt@512K-IPC")
	reportCell(b, out, "Misprediction recovery", -1, 1, "nockpt@512K-IPC")
}
