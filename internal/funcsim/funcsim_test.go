package funcsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/trace/tracetest"
	"branchsim/internal/workload"
)

// scriptGen emits ALU filler with scripted branches every stride
// instructions.
type scriptGen struct {
	outcomes []bool
	stride   int
	pos      int
	emitted  int
}

func (g *scriptGen) Next(inst *trace.Inst) bool {
	if g.pos >= len(g.outcomes)*g.stride {
		return false
	}
	i := g.pos
	g.pos++
	if i%g.stride == g.stride-1 {
		*inst = trace.Inst{
			PC:     uint64(0x1000 + (i/g.stride%16)*4),
			Kind:   trace.CondBranch,
			Taken:  g.outcomes[i/g.stride],
			Target: 0x100,
		}
		return true
	}
	*inst = trace.Inst{PC: uint64(0x5000 + i*4), Kind: trace.ALU}
	return true
}

func (g *scriptGen) Name() string { return "script" }

func TestRunCountsExactly(t *testing.T) {
	outcomes := make([]bool, 100)
	for i := range outcomes {
		outcomes[i] = true
	}
	g := &scriptGen{outcomes: outcomes, stride: 5}
	res := Run(predictor.NotTaken{}, g, Options{MaxInsts: 1 << 30})
	if res.Branches != 100 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if res.Mispredicts != 100 {
		t.Fatalf("mispredicts = %d (always-not-taken on all-taken)", res.Mispredicts)
	}
	if res.MispredictPercent() != 100 {
		t.Fatalf("percent = %v", res.MispredictPercent())
	}
	if res.TakenRate != 1 {
		t.Fatalf("taken rate = %v", res.TakenRate)
	}
}

func TestWarmupExcluded(t *testing.T) {
	outcomes := make([]bool, 100)
	for i := range outcomes {
		outcomes[i] = true
	}
	g := &scriptGen{outcomes: outcomes, stride: 10}
	// Warm up through the first half: 50 branches measured.
	res := Run(predictor.Taken{}, g, Options{MaxInsts: 1 << 30, WarmupInsts: 500})
	if res.Branches != 50 {
		t.Fatalf("measured branches = %d, want 50", res.Branches)
	}
	if res.Mispredicts != 0 {
		t.Fatalf("mispredicts = %d", res.Mispredicts)
	}
}

func TestMaxInstsBounds(t *testing.T) {
	outcomes := make([]bool, 1000)
	g := &scriptGen{outcomes: outcomes, stride: 10}
	res := Run(predictor.Taken{}, g, Options{MaxInsts: 100})
	if res.Insts != 100 {
		t.Fatalf("insts = %d", res.Insts)
	}
}

func TestPerClassCollection(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	p := workload.New(prof)
	res := Run(predictor.NewGShareFromBudget(8<<10), p, Options{
		MaxInsts: 200000,
		PerClass: true,
	})
	if len(res.ClassRates) == 0 {
		t.Fatal("no class rates collected")
	}
	var total int64
	for _, r := range res.ClassRates {
		total += r.Total
	}
	if total != res.Branches {
		t.Fatalf("class totals %d != branches %d", total, res.Branches)
	}
}

func TestPerClassOffByDefault(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	res := Run(predictor.Taken{}, workload.New(prof), Options{MaxInsts: 10000})
	if res.ClassRates != nil {
		t.Fatal("class rates collected without opting in")
	}
}

func TestRunBlocksWidthOneMatchesRun(t *testing.T) {
	prof, _ := workload.ByName("bzip2")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 14, Latency: 3})
	}
	scalar := Run(mk(), workload.New(prof), Options{MaxInsts: 300000, FetchWidth: 8})
	blocks := RunBlocks(mk(), "block", workload.New(prof), Options{
		MaxInsts: 300000, FetchWidth: 8, BlockBranches: 1,
	})
	if scalar.Mispredicts != blocks.Mispredicts {
		t.Fatalf("width-1 block run diverges: %d vs %d mispredicts",
			blocks.Mispredicts, scalar.Mispredicts)
	}
}

func TestRunBlocksWiderCostsAccuracy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 16, Latency: 3})
	}
	narrow := RunBlocks(mk(), "b1", workload.New(prof), Options{
		MaxInsts: 400000, BlockBranches: 1,
	})
	wide := RunBlocks(mk(), "b8", workload.New(prof), Options{
		MaxInsts: 400000, BlockBranches: 8,
	})
	if wide.MispredictRate() < narrow.MispredictRate()-0.002 {
		t.Fatalf("wider blocks should not improve accuracy: %.4f vs %.4f",
			wide.MispredictRate(), narrow.MispredictRate())
	}
	if wide.MispredictRate() > narrow.MispredictRate()+0.06 {
		t.Fatalf("block staleness cost too large: %.4f vs %.4f",
			wide.MispredictRate(), narrow.MispredictRate())
	}
}

func TestCycleAwareReceivesClock(t *testing.T) {
	g := core.New(core.Config{Entries: 1 << 12, Latency: 3})
	prof, _ := workload.ByName("eon")
	// Just verifying it runs through the cycle-aware path without
	// issue and produces sane numbers.
	res := Run(g, workload.New(prof), Options{MaxInsts: 200000, FetchWidth: 4})
	if res.Branches == 0 || res.MispredictRate() > 0.5 {
		t.Fatalf("suspicious result: %+v", res)
	}
}

// TestBadBudget pins that every entry point rejects a run with no measured
// window — a non-positive MaxInsts, or a warm-up outside [0, MaxInsts) —
// with a panic naming the workload and both counts, before reading the
// stream.
func TestBadBudget(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	src := workload.New(prof)
	runs := map[string]func(Options){
		"Run":     func(o Options) { Run(predictor.NewGShare(256, 0), src, o) },
		"RunMany": func(o Options) { RunMany([]Lane{{P: predictor.NewGShare(256, 0)}}, src, o) },
		"RunBlocks": func(o Options) {
			RunBlocks(core.New(core.Config{Entries: 1 << 10, Latency: 2}), "blk", src, o)
		},
		"RunManyBlocks": func(o Options) {
			RunManyBlocks([]BlockLane{{P: core.New(core.Config{Entries: 1 << 10, Latency: 2}), Name: "blk"}}, src, o)
		},
	}
	for name, run := range runs {
		for _, o := range []Options{
			{MaxInsts: 0},
			{MaxInsts: -5},
			{MaxInsts: 1000, WarmupInsts: 1000},
			{MaxInsts: 1000, WarmupInsts: 2000},
			{MaxInsts: 1000, WarmupInsts: -1},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				run(o)
				return ""
			}()
			for _, want := range []string{name + " on ", "gzip", fmt.Sprint(o.WarmupInsts), fmt.Sprint(o.MaxInsts)} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s %+v: panic %q does not contain %q", name, o, msg, want)
				}
			}
		}
	}
	if n := src.InstsScanned(); n != 0 {
		t.Errorf("a rejected run consumed %d instructions", n)
	}
}

// TestCycleZeroSelfClocked pins the accuracy engine's one clock hazard: a
// clocked lane is never announced cycle 0, so it clocks itself through a
// stream's cycle-0 branches and reads the cycle column only from the first
// nonzero cycle. A stream opening with seven branches in cycle 0 (fetch
// width 8), into a gshare.fast whose 2-bit buffer makes the row source
// sensitive to every push, must match the reference, whose OnCycle calls
// start at cycle 1.
func TestCycleZeroSelfClocked(t *testing.T) {
	insts := make([]trace.Inst, 4000)
	x := uint32(1)
	for i := range insts {
		x = x*1664525 + 1013904223
		insts[i] = trace.Inst{PC: 0x1000 + uint64(x>>24%64)*4, Kind: trace.CondBranch, Taken: x>>20&3 != 0,
			Src1: trace.NoReg, Src2: trace.NoReg, Dst: trace.NoReg}
	}
	mk := func() *core.GShareFast { return core.New(core.Config{Entries: 1 << 10, Latency: 4, BufferBits: 2}) }
	opts := Options{MaxInsts: int64(len(insts)), FetchWidth: 8}
	want := refRun(mk(), &tracetest.Slice{Insts: insts}, opts)
	got := RunMany([]Lane{{P: mk()}}, trace.FilterBranches(&tracetest.Slice{Insts: insts}), opts)[0]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine diverges from the reference:\n got %+v\nwant %+v", got, want)
	}
}
