// Command layers is the benchmark's traced run. For one workload it
// rebuilds the workload's inputs and calls each layer's public functions
// directly — workload, trace, pipeline (with its memory sidecar), funcsim,
// the predictors (built through the experiments factory), resultstore and
// experiments — recording every call as a span. It writes the spans as
// JSON and prints one line of per-layer metrics. It reads none of the
// program's process-global statistics.
//
// A run has up to four sections, each a root span:
//
//   - setup (store-warm only): the cold run that fills a result store,
//     replayed call by call, ending in resultstore.Put.
//   - replay: the timed run's own work, call by call, on one worker like
//     the timed run. The time its job spans cover is what perfbench
//     subtracts from the untraced wall-clock (unattributed_s).
//   - probes: the other per-layer measurements, on the same recordings.
//   - rerun: the workload's experiment runners called twice in-process;
//     the second call is served by the in-memory memos.
//
// perfbench/run.sh --trace 1 builds and runs it; it is not meant to be run
// alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
	"branchsim/perfbench/internal/spec"
)

// predictorBranches caps the branches each benchmark contributes to the
// stream the predictor probes step through.
const predictorBranches = 50_000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spanMetrics derive a per-layer metric from the spans of one name: self
// nanoseconds per unit of work, times scale.
var spanMetrics = []struct {
	metric, span string
	scale        float64
	unit         string
}{
	{"workload.gen_ns_per_inst", "workload.gen", 1, "ns"},
	{"trace.record_ns_per_inst", "trace.record", 1, "ns"},
	{"trace.digest_ns_per_inst", "trace.digest", 1, "ns"},
	{"trace.replay_ns_per_inst", "trace.replay", 1, "ns"},
	{"trace.branch_fill_ns_per_branch", "trace.branch_fill", 1, "ns"},
	{"pipeline.sidecar_ns_per_inst", "pipeline.sidecar", 1, "ns"},
	{"pipeline.run_ns_per_inst", "pipeline.run", 1, "ns"},
	{"pipeline.runmany1_ns_per_inst", "pipeline.runmany1", 1, "ns"},
	{"pipeline.runmany_ns_per_lane_inst", "pipeline.runmany_column", 1, "ns"},
	{"funcsim.runmany_ns_per_lane_branch", "funcsim.runmany_column", 1, "ns"},
	{"funcsim.run_ns_per_branch", "funcsim.run", 1, "ns"},
	{"funcsim.runmany1_ns_per_branch", "funcsim.runmany1", 1, "ns"},
	{"resultstore.put_us_per_cell", "resultstore.put", 1e-3, "us"},
	{"resultstore.get_us_per_cell", "resultstore.get", 1e-3, "us"},
	{"experiments.rerun_ms", "experiments.rerun", 1e-6, "ms"},
}

var (
	// predictorKinds are stepped alone; overrideKinds also behind the
	// overriding organization. Both at every predictorBudgets entry.
	predictorKinds   = []string{"gshare", "bimode", "2bcgskew", "perceptron", "multicomponent", "gshare.fast"}
	overrideKinds    = []string{"2bcgskew", "perceptron", "multicomponent"}
	predictorBudgets = []int{64 << 10, 512 << 10}
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 0, "re-seeds every workload profile; 0 keeps the paper's seeds")
	tmp := flag.String("tmp", "", "scratch directory for the probe's result store")
	store := flag.String("store", "", "store-warm: the store perfbench's set-up filled")
	spansPath := flag.String("spans", "", "write the spans here as JSON")
	flag.Parse()

	if err := run(*name, *seed, *tmp, *store, *spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, tmp, store, spansPath string) error {
	w, err := spec.ByName(name)
	if err != nil {
		return err
	}
	b := newBench(w, seed)
	if w.Warm {
		st, err := resultstore.Open(filepath.Join(tmp, "setup-store"))
		if err != nil {
			return err
		}
		b.fillStore(st)
	}
	replay := b.tr.begin("replay", -1)
	switch {
	case w.Warm:
		b.replayWarm(replay)
	case w.Bin == "ipcsim":
		b.replayIPCSim(replay)
	default:
		b.replayReproduce(replay)
	}
	b.tr.end(replay, 0)

	probes := b.tr.begin("probes", -1)
	b.probes(probes)
	if !w.Warm {
		st, err := resultstore.Open(filepath.Join(tmp, "store"))
		if err != nil {
			return err
		}
		b.storeProbe(probes, st)
	}
	b.tr.end(probes, 0)

	var size, insts int64
	for _, rec := range b.recs {
		size += rec.SizeBytes()
		insts += rec.Len()
	}
	// The rerun's runners record their own streams; drop ours first.
	b.recs, b.sides, b.cells = nil, nil, nil
	runtime.GC()
	opts := experiments.Options{Insts: w.Insts, Parallel: 1}
	if store != "" {
		if opts.Store, err = resultstore.Open(store); err != nil {
			return err
		}
	}
	b.rerun(b.tr.begin("rerun", -1), opts)

	spans := b.tr.spans
	self := selfTimes(spans)
	m := map[string]metric{
		"trace.bytes_per_inst": {float64(size) / float64(insts), "B"},
		"resultstore.cells":    {float64(b.storeCells), "count"},
	}
	for _, sm := range spanMetrics {
		m[sm.metric] = b.spanMetric(spans, self, sm.span, sm.scale, sm.unit)
	}
	for _, kind := range predictorKinds {
		for _, budget := range predictorBudgets {
			name := fmt.Sprintf("predictor.%s.%dKB", kind, budget>>10)
			m[name+".ns_per_branch"] = b.spanMetric(spans, self, name, 1, "ns")
		}
	}
	for _, kind := range overrideKinds {
		for _, budget := range predictorBudgets {
			name := fmt.Sprintf("predictor.override.%s.%dKB", kind, budget>>10)
			m[name+".ns_per_branch"] = b.spanMetric(spans, self, name, 1, "ns")
		}
	}
	if spansPath != "" {
		if err := b.tr.write(spansPath); err != nil {
			return err
		}
	}
	out, err := json.Marshal(map[string]any{
		"attempted": b.attempted,
		"failed":    b.failed,
		"covered_s": float64(covered(spans, replay)) / 1e9,
		"metrics":   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cellSpec is one grid cell's predictor construction, as the experiments
// package declares it.
type cellSpec struct {
	family string // "accuracy" or "timing"
	kind   string
	org    string // "" for accuracy; "ideal" or "override" for timing
	budget int
}

// cellRecord is one computed cell, kept for the result-store probe.
type cellRecord struct {
	bench int
	spec  cellSpec
	rec   resultstore.Record
}

type bench struct {
	w      spec.Workload
	profs  []workload.Profile
	warmup int64
	cfg    pipeline.Config
	tr     *tracer

	// Per benchmark, filled on first use.
	recs    []*trace.Recording
	sides   []*pipeline.MemSidecar
	digests []string

	// store is the result store the store-warm set-up filled; storeCells
	// counts the cells the store probe wrote and read back.
	store      *resultstore.Store
	storeCells int

	cells             []cellRecord
	attempted, failed int
}

func newBench(w spec.Workload, seed int64) *bench {
	profs := workload.Profiles()
	if seed != 0 {
		for i := range profs {
			profs[i].Seed ^= splitmix(uint64(seed))
		}
	}
	b := &bench{
		w:       w,
		profs:   profs,
		warmup:  spec.Warmup(w.Insts),
		cfg:     pipeline.DefaultConfig(),
		tr:      newTracer(),
		recs:    make([]*trace.Recording, len(profs)),
		sides:   make([]*pipeline.MemSidecar, len(profs)),
		digests: make([]string, len(profs)),
	}
	if w.Bin == "ipcsim" {
		b.warmup = 0 // cmd/ipcsim's default
	}
	return b
}

// splitmix scrambles the held-out seed so nearby seeds give unrelated
// profile seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "layers: "+format+"\n", args...)
	}
}

func (b *bench) spanMetric(spans []span, self []int64, name string, scale float64, unit string) metric {
	v, ok := perUnit(spans, self, name)
	b.check(ok, "no %s span did any work", name)
	return metric{v * scale, unit}
}

// recording records benchmark pi's stream on first use.
func (b *bench) recording(pi, parent int) *trace.Recording {
	if b.recs[pi] == nil {
		id := b.tr.begin("trace.record", parent)
		b.recs[pi] = trace.Record(workload.New(b.profs[pi]), b.w.Insts)
		b.tr.end(id, float64(b.recs[pi].Len()))
	}
	return b.recs[pi]
}

// sidecar builds benchmark pi's memory sidecar on first use.
func (b *bench) sidecar(pi, parent int) *pipeline.MemSidecar {
	if b.sides[pi] == nil {
		rec := b.recording(pi, parent)
		b.tr.timed("pipeline.sidecar", parent, float64(rec.Len()), func() {
			b.sides[pi] = pipeline.BuildMemSidecar(rec, pipeline.MemGeometryOf(b.cfg))
		})
	}
	return b.sides[pi]
}

// digest computes benchmark pi's recording digest on first use (a
// recording caches its digest, so only the first call does the work).
func (b *bench) digest(pi, parent int) string {
	if b.digests[pi] == "" {
		rec := b.recording(pi, parent)
		b.tr.timed("trace.digest", parent, float64(rec.Len()), func() { b.digests[pi] = rec.Digest() })
	}
	return b.digests[pi]
}

// eachBench runs f once per benchmark, each call inside its own job span
// under parent.
func (b *bench) eachBench(parent int, f func(pi, job int)) {
	for pi := range b.profs {
		job := b.tr.begin("job", parent)
		f(pi, job)
		b.tr.end(job, 0)
	}
}

func build(c cellSpec) predictor.Predictor {
	if c.org == "override" {
		p, err := experiments.NewOverriding(c.kind, c.budget)
		if err != nil {
			panic(err) // the kinds are this file's constants
		}
		return p
	}
	p, err := experiments.NewPredictor(c.kind, c.budget)
	if err != nil {
		panic(err)
	}
	return p
}

func accuracyCells(kinds []string, budgets []int) []cellSpec {
	var cs []cellSpec
	for _, budget := range budgets {
		for _, kind := range kinds {
			cs = append(cs, cellSpec{"accuracy", kind, "", budget})
		}
	}
	return cs
}

// timingCells mirrors the experiments package's organizations: realistic
// cells put complex predictors behind the quick gshare; gshare.fast is
// pipelined, so its realistic cell is its ideal one.
func timingCells(kinds []string, budgets []int, realistic bool) []cellSpec {
	var cs []cellSpec
	for _, budget := range budgets {
		for _, kind := range kinds {
			org := "ideal"
			if realistic && kind != "gshare.fast" {
				org = "override"
			}
			cs = append(cs, cellSpec{"timing", kind, org, budget})
		}
	}
	return cs
}

// plans returns the cell plans experiment id executes, in order. The
// program resolves each plan's cells per benchmark in one fused pass,
// skipping cells an earlier plan already computed.
func plans(id string) [][]cellSpec {
	paper := experiments.PaperBudgets()
	four := []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	design := []int{64 << 10}
	switch id {
	case "figure1":
		return [][]cellSpec{accuracyCells([]string{"gshare", "bimode", "multicomponent", "perceptron"}, experiments.Figure1Budgets())}
	case "figure5":
		return [][]cellSpec{accuracyCells(four, paper)}
	case "figure6":
		return [][]cellSpec{accuracyCells(four, design)}
	case "figure2":
		two := []string{"perceptron", "multicomponent"}
		return [][]cellSpec{timingCells(two, paper, false), timingCells(two, paper, true)}
	case "figure7":
		return [][]cellSpec{timingCells(four, paper, false), timingCells(four, paper, true)}
	case "figure8":
		return [][]cellSpec{timingCells(four, design, true)}
	}
	return nil // table2 runs the delay model alone
}

// distinct returns the cells of ps not yet in done, marking them done.
func distinct(done map[cellSpec]bool, ps ...[]cellSpec) []cellSpec {
	var out []cellSpec
	for _, p := range ps {
		for _, c := range p {
			if !done[c] {
				done[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// replayReproduce replays a cmd/reproduce cold run: for each plan, one
// fused pass per benchmark over the plan's new cells.
func (b *bench) replayReproduce(parent int) {
	done := map[cellSpec]bool{}
	for _, id := range b.w.Experiments {
		for _, plan := range plans(id) {
			cells := distinct(done, plan)
			if len(cells) == 0 {
				continue
			}
			b.eachBench(parent, func(pi, job int) { b.column(pi, job, cells) })
		}
	}
}

// column runs one benchmark's cells (all of one family) in one fused pass.
func (b *bench) column(pi, parent int, cells []cellSpec) {
	rec := b.recording(pi, parent)
	insts := rec.Len()
	if cells[0].family == "accuracy" {
		lanes := make([]funcsim.Lane, len(cells))
		for i, c := range cells {
			lanes[i] = funcsim.Lane{P: build(c)}
		}
		var res []funcsim.Result
		b.tr.timed("funcsim.runmany", parent, float64(len(lanes))*float64(rec.Branches()), func() {
			res = funcsim.RunMany(lanes, rec.Replay(), funcsim.Options{MaxInsts: b.w.Insts, WarmupInsts: b.warmup})
		})
		for i, c := range cells {
			b.keep(pi, c, resultstore.Record{Accuracy: &res[i]})
		}
		return
	}
	side := b.sidecar(pi, parent)
	lanes := make([]pipeline.Lane, len(cells))
	for i, c := range cells {
		lanes[i] = pipeline.Lane{Cfg: b.cfg, Pred: build(c)}
	}
	var res []pipeline.Result
	b.tr.timed("pipeline.runmany", parent, float64(len(lanes))*float64(insts), func() {
		res = pipeline.RunMany(lanes, rec.Replay(), side, b.w.Insts, b.warmup)
	})
	for i, c := range cells {
		b.keep(pi, c, resultstore.Record{Timing: &res[i]})
	}
}

func (b *bench) keep(pi int, c cellSpec, rec resultstore.Record) {
	b.cells = append(b.cells, cellRecord{bench: pi, spec: c, rec: rec})
}

// key is the cell's persistent identity, built as the experiments package
// builds it.
func (b *bench) key(cr cellRecord) resultstore.Key {
	prof := b.profs[cr.bench]
	k := resultstore.Key{
		Family: cr.spec.family,
		Kind:   cr.spec.kind,
		Org:    cr.spec.org,
		Budget: cr.spec.budget,
		Bench:  prof.Name,
		Seed:   prof.Seed,
		Insts:  b.w.Insts,
		Warmup: b.warmup,
		Trace:  b.digests[cr.bench],
	}
	if cr.spec.family == "timing" {
		k.Machine = fmt.Sprintf("%+v", b.cfg.Canonical())
	}
	return k
}

// replayIPCSim replays cmd/ipcsim: per predictor kind, one pipeline.Sim
// run per benchmark, each recording and sidecar made once.
func (b *bench) replayIPCSim(parent int) {
	for _, c := range timingCells(b.w.Kinds, []int{b.w.Budget}, true) {
		for pi := range b.profs {
			job := b.tr.begin("job", parent)
			rec := b.recording(pi, job)
			sim := pipeline.New(b.cfg, build(c))
			sim.SetMemSidecar(b.sidecar(pi, job))
			var res pipeline.Result
			b.tr.timed("pipeline.sim_run", job, float64(rec.Len()), func() {
				res = sim.Run(rec.Replay(), b.w.Insts, b.warmup)
			})
			b.keep(pi, c, resultstore.Record{Timing: &res})
			b.tr.end(job, 0)
		}
	}
}

// fillStore replays store-warm's set-up into st: a cold run of the
// experiments, each cell then written with resultstore.Put. The warm
// process records its streams afresh, so the set-up's are dropped after.
func (b *bench) fillStore(st *resultstore.Store) {
	root := b.tr.begin("setup", -1)
	b.replayReproduce(root)
	b.putAll(root, st)
	b.tr.end(root, 0)
	b.store = st
	for i := range b.profs {
		b.recs[i], b.sides[i], b.digests[i] = nil, nil, ""
	}
}

// putAll writes every computed cell to st with resultstore.Put.
func (b *bench) putAll(parent int, st *resultstore.Store) {
	for pi := range b.profs {
		b.digest(pi, parent)
	}
	for i := range b.cells {
		cr := &b.cells[i]
		cr.rec.Key = b.key(*cr)
		b.tr.timed("resultstore.put", parent, 1, func() { st.Put(cr.rec.Key, cr.rec) })
	}
}

// replayWarm replays store-warm's timed run: record and digest each
// benchmark's stream, then serve every cell with resultstore.Get.
func (b *bench) replayWarm(parent int) {
	byBench := make([][]cellRecord, len(b.profs))
	for _, cr := range b.cells {
		byBench[cr.bench] = append(byBench[cr.bench], cr)
	}
	b.eachBench(parent, func(pi, job int) {
		b.digest(pi, job)
		for _, cr := range byBench[pi] {
			key := b.key(cr)
			var got resultstore.Record
			var ok bool
			b.tr.timed("resultstore.get", job, 1, func() { got, ok = b.store.Get(key) })
			b.check(ok && reflect.DeepEqual(got, cr.rec), "store-warm: %s not served as written", key.Canonical())
		}
	})
}

// storeProbe writes every cell the replay computed to st, a fresh store,
// and reads each back with resultstore.Get.
func (b *bench) storeProbe(parent int, st *resultstore.Store) {
	b.putAll(parent, st)
	for _, cr := range b.cells {
		var got resultstore.Record
		var ok bool
		b.tr.timed("resultstore.get", parent, 1, func() { got, ok = st.Get(cr.rec.Key) })
		b.check(ok && reflect.DeepEqual(got, cr.rec), "store probe: %s not served as written", cr.rec.Key.Canonical())
	}
	b.storeCells = len(b.cells)
}

// probes measures the layers the replay does not isolate, on the same
// recordings: generation alone, digest, instruction and branch fill, the
// sidecar, one cell on the solo and one-lane fused paths of each
// simulator, one benchmark's fused Figure 7 and Figure 1 columns, and each
// predictor's step.
func (b *bench) probes(parent int) {
	for _, prof := range b.profs {
		var n int64
		id := b.tr.begin("workload.gen", parent)
		g := workload.New(prof)
		var inst trace.Inst
		for n < b.w.Insts && g.Next(&inst) {
			n++
		}
		b.tr.end(id, float64(n))
	}
	insts := make([]trace.Inst, trace.InstBatchLen)
	branches := make([]trace.BranchRec, trace.BatchLen)
	for pi := range b.profs {
		rec := b.recording(pi, parent)
		b.digest(pi, parent)
		b.sidecar(pi, parent)
		b.tr.timed("trace.replay", parent, float64(rec.Len()), func() {
			for cur := rec.Replay(); cur.NextInsts(insts) > 0; {
			}
		})
		b.tr.timed("trace.branch_fill", parent, float64(rec.Branches()), func() {
			for cur := rec.ReplayBranches(); cur.NextBranches(branches) > 0; {
			}
		})
	}

	fopts := funcsim.Options{MaxInsts: b.w.Insts, WarmupInsts: b.warmup}
	solo := cellSpec{"timing", "gshare.fast", "ideal", 64 << 10}
	fsolo := cellSpec{"accuracy", "gshare", "", 64 << 10}
	for pi, prof := range b.profs {
		rec, side := b.recs[pi], b.sides[pi]
		var r1, r2 pipeline.Result
		run := func() {
			sim := pipeline.New(b.cfg, build(solo))
			sim.SetMemSidecar(side)
			b.tr.timed("pipeline.run", parent, float64(rec.Len()), func() { r1 = sim.Run(rec.Replay(), b.w.Insts, b.warmup) })
		}
		runMany := func() {
			lanes := []pipeline.Lane{{Cfg: b.cfg, Pred: build(solo)}}
			b.tr.timed("pipeline.runmany1", parent, float64(rec.Len()), func() {
				r2 = pipeline.RunMany(lanes, rec.Replay(), side, b.w.Insts, b.warmup)[0]
			})
		}
		var f1, f2 funcsim.Result
		frun := func() {
			p := build(fsolo)
			b.tr.timed("funcsim.run", parent, float64(rec.Branches()), func() { f1 = funcsim.Run(p, rec.Replay(), fopts) })
		}
		frunMany := func() {
			lanes := []funcsim.Lane{{P: build(fsolo)}}
			b.tr.timed("funcsim.runmany1", parent, float64(rec.Branches()), func() {
				f2 = funcsim.RunMany(lanes, rec.Replay(), fopts)[0]
			})
		}
		// Alternate which path runs first so neither always gets the
		// warmer caches.
		if pi%2 == 0 {
			run()
			runMany()
			frun()
			frunMany()
		} else {
			runMany()
			run()
			frunMany()
			frun()
		}
		b.check(r1 == r2, "%s: pipeline.Run and one-lane RunMany differ", prof.Name)
		b.check(reflect.DeepEqual(f1, f2), "%s: funcsim.Run and one-lane RunMany differ", prof.Name)
	}

	rec := b.recs[0]
	col7 := distinct(map[cellSpec]bool{}, plans("figure7")...)
	lanes := make([]pipeline.Lane, len(col7))
	for i, c := range col7 {
		lanes[i] = pipeline.Lane{Cfg: b.cfg, Pred: build(c)}
	}
	b.tr.timed("pipeline.runmany_column", parent, float64(len(lanes))*float64(rec.Len()), func() {
		pipeline.RunMany(lanes, rec.Replay(), b.sides[0], b.w.Insts, b.warmup)
	})
	col1 := plans("figure1")[0]
	flanes := make([]funcsim.Lane, len(col1))
	for i, c := range col1 {
		flanes[i] = funcsim.Lane{P: build(c)}
	}
	b.tr.timed("funcsim.runmany_column", parent, float64(len(flanes))*float64(rec.Branches()), func() {
		funcsim.RunMany(flanes, rec.Replay(), fopts)
	})

	b.predictorProbes(parent)
}

// predictorProbes steps each predictor through the first predictorBranches
// recorded branches of every benchmark, one Predict and Update per branch.
func (b *bench) predictorProbes(parent int) {
	var pcs []uint64
	var takens []bool
	buf := make([]trace.BranchRec, trace.BatchLen)
	for _, rec := range b.recs {
		cur := rec.ReplayBranches()
		for got := 0; got < predictorBranches; {
			n := cur.NextBranches(buf)
			if n == 0 {
				break
			}
			for _, br := range buf[:min(n, predictorBranches-got)] {
				pcs = append(pcs, br.PC)
				takens = append(takens, br.Taken)
			}
			got += n
		}
	}
	step := func(name string, p predictor.Predictor) {
		var miss int
		b.tr.timed(name, parent, float64(len(pcs)), func() {
			for i, pc := range pcs {
				if p.Predict(pc) != takens[i] {
					miss++
				}
				p.Update(pc, takens[i])
			}
		})
		b.check(miss < len(pcs)/2, "%s mispredicted %d of %d branches", name, miss, len(pcs))
	}
	for _, kind := range predictorKinds {
		for _, budget := range predictorBudgets {
			step(fmt.Sprintf("predictor.%s.%dKB", kind, budget>>10), build(cellSpec{"accuracy", kind, "", budget}))
		}
	}
	for _, kind := range overrideKinds {
		for _, budget := range predictorBudgets {
			step(fmt.Sprintf("predictor.override.%s.%dKB", kind, budget>>10), build(cellSpec{"timing", kind, "override", budget}))
		}
	}
}

// rerun calls the workload's experiment runners twice in this process, the
// second call served by the in-memory memos; cmd/ipcsim's cells are
// Figure 8's. store-warm's first call is served from perfbench's store.
func (b *bench) rerun(parent int, opts experiments.Options) {
	ids := b.w.Experiments
	if b.w.Bin == "ipcsim" {
		ids = []string{"figure8"}
	}
	call := func(name string) []string {
		var out []string
		b.tr.timed(name, parent, 1, func() {
			for _, id := range ids {
				runner, err := experiments.ByID(id)
				if err != nil {
					b.check(false, "%v", err)
					continue
				}
				out = append(out, runner(opts).Render())
			}
		})
		return out
	}
	first := call("experiments.run")
	second := call("experiments.rerun")
	b.check(reflect.DeepEqual(first, second), "experiments rerun rendered differently")
	b.tr.end(parent, 0)
}
