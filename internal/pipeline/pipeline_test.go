package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/delaymodel"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// oracle predicts every branch correctly by replaying the stream's branch
// outcomes in order: the simulator calls Predict then Update once per
// conditional branch, in program order, however it batches the stream.
type oracle struct {
	outcomes []bool
	next     int
}

func (o *oracle) Predict(uint64) bool { return o.outcomes[o.next] }
func (o *oracle) Update(uint64, bool) { o.next++ }
func (o *oracle) SizeBytes() int      { return 0 }
func (o *oracle) Name() string        { return "oracle" }

// newOracle reads the first insts instructions of src and arms an oracle
// with their branch outcomes.
func newOracle(src trace.Source, insts int64) *oracle {
	o := &oracle{}
	var inst trace.Inst
	for n := int64(0); n < insts && src.Next(&inst); n++ {
		if inst.Kind == trace.CondBranch {
			o.outcomes = append(o.outcomes, inst.Taken)
		}
	}
	return o
}

func run(p predictor.Predictor, bench string, insts int64) Result {
	prof, _ := workload.ByName(bench)
	sim := New(DefaultConfig(), p)
	return sim.Run(workload.New(prof), insts, insts/4)
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(64<<10), "eon", 400000)
	if ipc := res.IPC(); ipc <= 0.1 || ipc > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("IPC %v out of physical bounds", ipc)
	}
}

func TestOraclePredictorBeatsBadPredictor(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	o := newOracle(workload.New(prof), 400000)
	resO := New(DefaultConfig(), o).Run(workload.New(prof), 400000, 100000)

	resBad := run(predictor.NotTaken{}, "twolf", 400000)
	if resO.IPC() <= resBad.IPC() {
		t.Fatalf("oracle IPC %.3f <= not-taken IPC %.3f", resO.IPC(), resBad.IPC())
	}
	if resO.Mispredicts != 0 {
		t.Fatalf("oracle mispredicted %d times", resO.Mispredicts)
	}
	// Branch handling must matter: the gap should be substantial.
	if resO.IPC() < 1.2*resBad.IPC() {
		t.Fatalf("misprediction penalty too weak: %.3f vs %.3f", resO.IPC(), resBad.IPC())
	}
}

func TestMispredictionRateMatchesFuncsimBallpark(t *testing.T) {
	// The timing simulator's measured misprediction rate for a simple
	// predictor should be in the same region as a functional run (exact
	// match is not expected: cycle feeds differ for cycle-aware preds,
	// and measurement windows differ slightly).
	res := run(predictor.NewGShareFromBudget(64<<10), "gzip", 1000000)
	if res.MispredictPercent() < 1 || res.MispredictPercent() > 20 {
		t.Fatalf("gshare on gzip: %.2f%%", res.MispredictPercent())
	}
}

func TestOverrideBubblesReduceIPC(t *testing.T) {
	prof, _ := workload.ByName("parser")
	mkSlow := func() predictor.Predictor { return predictor.NewPerceptronFromBudget(256 << 10) }

	ideal := New(DefaultConfig(), mkSlow())
	idealRes := ideal.Run(workload.New(prof), 600000, 150000)

	slow := mkSlow()
	lat := delaymodel.Default.ForPredictor(slow)
	over := core.NewOverriding(predictor.NewGShare(2048, 0), slow, lat)
	overSim := New(DefaultConfig(), over)
	overRes := overSim.Run(workload.New(prof), 600000, 150000)

	if overRes.OverrideRate <= 0 {
		t.Fatal("no overrides recorded")
	}
	if overRes.IPC() >= idealRes.IPC() {
		t.Fatalf("override bubbles did not cost IPC: %.3f vs ideal %.3f",
			overRes.IPC(), idealRes.IPC())
	}
}

func TestGShareFastPaysNoOrganizationPenalty(t *testing.T) {
	// gshare.fast with a 9-cycle PHT must beat the same-accuracy-class
	// overriding gshare with a 9-cycle latency.
	prof, _ := workload.ByName("vpr")
	fast := core.New(core.Config{Entries: 1 << 20, Latency: 9})
	fastRes := New(DefaultConfig(), fast).Run(workload.New(prof), 600000, 150000)

	slow := predictor.NewGShare(1<<20, 0)
	over := core.NewOverriding(predictor.NewGShare(2048, 0), slow, 9)
	overRes := New(DefaultConfig(), over).Run(workload.New(prof), 600000, 150000)

	if fastRes.IPC() <= overRes.IPC() {
		t.Fatalf("pipelined gshare.fast (%.3f) should beat overriding gshare (%.3f) at equal size",
			fastRes.IPC(), overRes.IPC())
	}
}

func TestCacheStatsPopulated(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(16<<10), "mcf", 400000)
	if res.L1DMissRate <= 0 {
		t.Fatal("mcf must miss in the D-cache")
	}
	if res.L1DMissRate > 0.9 {
		t.Fatalf("implausible L1D miss rate %v", res.L1DMissRate)
	}
	if res.L2MissRate <= 0 {
		t.Fatal("mcf must miss in the L2")
	}
}

func TestMemoryBoundBenchmarkSlower(t *testing.T) {
	fast := run(predictor.NewGShareFromBudget(64<<10), "eon", 400000)
	slow := run(predictor.NewGShareFromBudget(64<<10), "mcf", 400000)
	if slow.IPC() >= fast.IPC() {
		t.Fatalf("mcf (%.3f) should be slower than eon (%.3f)", slow.IPC(), fast.IPC())
	}
}

func TestDeeperPipelineCostsIPC(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	shallow := DefaultConfig()
	shallow.PipelineDepth = 10
	deep := DefaultConfig()
	deep.PipelineDepth = 40
	resShallow := New(shallow, predictor.NewGShareFromBudget(16<<10)).Run(workload.New(prof), 400000, 100000)
	resDeep := New(deep, predictor.NewGShareFromBudget(16<<10)).Run(workload.New(prof), 400000, 100000)
	if resDeep.IPC() >= resShallow.IPC() {
		t.Fatalf("deeper pipeline did not cost IPC: %.3f vs %.3f",
			resDeep.IPC(), resShallow.IPC())
	}
}

func TestBTBMissesCounted(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(16<<10), "gcc", 400000)
	if res.BTBMissRate <= 0 {
		t.Fatal("gcc's large code must produce BTB misses")
	}
}

func TestSlotRing(t *testing.T) {
	r := newSlotRing(2)
	if got := r.take(10); got != 10 {
		t.Fatalf("first take at %d", got)
	}
	if got := r.take(10); got != 10 {
		t.Fatalf("second take at %d", got)
	}
	if got := r.take(10); got != 11 {
		t.Fatalf("overflow take at %d, want 11", got)
	}
	if got := r.peekFree(10); got != 11 {
		t.Fatalf("peek at %d, want 11", got)
	}
	// peek must not reserve.
	if got := r.peekFree(11); got != 11 {
		t.Fatalf("peek reserved: %d", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := DefaultConfig()
	bad.IssueWidth = 0
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero issue width")
		}
	}()
	New(bad, predictor.Taken{})
}

// TestInvalidLaneNamed pins the loud failure on a bad config: the panic
// names the offending lane and prints its config, through RunMany and
// through a one-lane New(...).Run alike. Beside the widths and the ROB
// size, it covers the limits the packed slot words cannot hold (a port
// count or issue width outside [1, 127]) and every latency or depth whose
// negative value would wrap in the engine's unsigned cycle arithmetic.
func TestInvalidLaneNamed(t *testing.T) {
	bad := func(mutate func(*Config)) Config {
		cfg := DefaultConfig()
		mutate(&cfg)
		return cfg
	}
	src := func() trace.Source { return workload.New(mustProfile(t, "gzip")) }
	panicMsg := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	const limits = "issue width and port counts must lie in [1, 127]"
	const negative = "latencies and depths must not be negative"
	for _, tc := range []struct {
		name string
		bad  Config
		want string
	}{
		{"widths", bad(func(c *Config) { c.FetchWidth = 0 }), "invalid widths"},
		{"rob", bad(func(c *Config) { c.ROBSize = 0 }), "ROB size must be positive"},
		{"issue-128", bad(func(c *Config) { c.IssueWidth = 128 }), limits},
		{"int-ports-0", bad(func(c *Config) { c.IntPorts = 0 }), limits},
		{"mem-ports-128", bad(func(c *Config) { c.MemPorts = 128 }), limits},
		{"mul-ports-neg", bad(func(c *Config) { c.MulPorts = -1 }), limits},
		{"fp-ports-0", bad(func(c *Config) { c.FPPorts = 0 }), limits},
		{"mul-latency", bad(func(c *Config) { c.MulLatency = -1 }), negative},
		{"fp-latency", bad(func(c *Config) { c.FPLatency = -1 }), negative},
		{"l1d-latency", bad(func(c *Config) { c.L1DLatency = -1 }), negative},
		{"l2-latency", bad(func(c *Config) { c.L2Latency = -1 }), negative},
		{"mem-latency", bad(func(c *Config) { c.MemLatency = -1 }), negative},
		{"btb-penalty", bad(func(c *Config) { c.BTBMissPenalty = -1 }), negative},
		{"pipeline-depth", bad(func(c *Config) { c.PipelineDepth = -1 }), negative},
		{"front-end-depth", bad(func(c *Config) { c.FrontEndDepth = -1 }), negative},
		{"btb-entries-0", bad(func(c *Config) { c.BTBEntries = 0 }), "BTB entries must be a power of two"},
		{"btb-ways-3", bad(func(c *Config) { c.BTBWays = 3 }), "BTB entries must be a power of two"},
		{"l1d-size-0", bad(func(c *Config) { c.L1D.SizeBytes = 0 }), "invalid L1D geometry"},
		{"l1i-line-48", bad(func(c *Config) { c.L1I.LineBytes = 48 }), "invalid L1I geometry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgText := fmt.Sprintf("%+v", tc.bad)
			msg := panicMsg(func() {
				RunMany([]Lane{
					{Cfg: DefaultConfig(), Pred: predictor.Taken{}},
					{Cfg: tc.bad, Pred: predictor.Taken{}},
				}, src(), nil, 1000, 0)
			})
			for _, want := range []string{tc.want, "lane 1", cfgText} {
				if !strings.Contains(msg, want) {
					t.Errorf("RunMany panic %q does not contain %q", msg, want)
				}
			}
			msg = panicMsg(func() { New(tc.bad, predictor.Taken{}).Run(src(), 1000, 0) })
			for _, want := range []string{tc.want, "lane 0", cfgText} {
				if !strings.Contains(msg, want) {
					t.Errorf("New(...).Run panic %q does not contain %q", msg, want)
				}
			}
		})
	}
}

// TestSharedClockedLaneNamed pins the sharing rules' loud failures: a
// clocked instance (gshare.fast steps at its own lane's fetch cycles)
// shared by two lanes, directly, inside an overriding pair or inside an
// uncheckpointed wrapper, and an
// instance held twice by one lane panic before any instruction is read,
// naming the lanes and the predictor.
func TestSharedClockedLaneNamed(t *testing.T) {
	cfg := DefaultConfig()
	fast := func() predictor.Predictor { return core.New(core.Config{Entries: 1 << 10, Latency: 3}) }
	for _, tc := range []struct {
		name  string
		lanes func() ([]Lane, predictor.Predictor)
		want  string
	}{
		{"direct", func() ([]Lane, predictor.Predictor) {
			g := fast()
			return []Lane{{Cfg: cfg, Pred: predictor.NewGShare(256, 0)}, {Cfg: cfg, Pred: g}, {Cfg: cfg, Pred: g}}, g
		}, "lanes 1 and 2"},
		{"pair", func() ([]Lane, predictor.Predictor) {
			g := fast()
			return []Lane{{Cfg: cfg, Pred: g}, {Cfg: cfg, Pred: core.NewOverriding(predictor.NewGShare(64, 0), g, 3)}}, g
		}, "lanes 0 and 1"},
		{"quick-of-clocked-pair", func() ([]Lane, predictor.Predictor) {
			q := predictor.NewGShare(64, 0)
			return []Lane{{Cfg: cfg, Pred: core.NewOverriding(q, fast(), 3)}, {Cfg: cfg, Pred: q}}, q
		}, "lanes 0 and 1"},
		{"uncheckpointed-wrapper", func() ([]Lane, predictor.Predictor) {
			g := core.New(core.Config{Entries: 1 << 10, Latency: 3})
			return []Lane{{Cfg: cfg, Pred: g}, {Cfg: cfg, Pred: core.WithoutCheckpointing(g)}}, g
		}, "lanes 0 and 1"},
		{"twice-in-one-lane", func() ([]Lane, predictor.Predictor) {
			q := predictor.NewGShare(64, 0)
			return []Lane{{Cfg: cfg, Pred: predictor.Taken{}}, {Cfg: cfg, Pred: core.NewOverriding(q, q, 2)}}, q
		}, "lane 1 holds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := workload.New(mustProfile(t, "gzip"))
			lanes, shared := tc.lanes()
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				RunMany(lanes, src, nil, 1000, 0)
				return ""
			}()
			for _, want := range []string{tc.want, shared.Name()} {
				if !strings.Contains(msg, want) {
					t.Errorf("RunMany panic %q does not contain %q", msg, want)
				}
			}
			if n := src.InstsScanned(); n != 0 {
				t.Errorf("RunMany read %d instructions before panicking", n)
			}
		})
	}
}

// mapTaken is a value-type predictor whose type is not comparable: it
// predicts taken for the PCs it lists.
type mapTaken struct{ pcs []uint64 }

func (m mapTaken) Predict(pc uint64) bool { return slices.Contains(m.pcs, pc) }
func (m mapTaken) Update(uint64, bool)    {}
func (m mapTaken) SizeBytes() int         { return 8 * len(m.pcs) }
func (m mapTaken) Name() string           { return "maptaken" }

// TestValuePredictorsNeverShared pins that a predictor whose dynamic type
// is not a pointer is never compared, so a non-comparable one in several
// lanes, alone or as a pair's component, runs like the reference.
func TestValuePredictorsNeverShared(t *testing.T) {
	cfg := DefaultConfig()
	prof := mustProfile(t, "gzip")
	lanes := func() []Lane {
		m := mapTaken{pcs: []uint64{0x1000}}
		return []Lane{
			{Cfg: cfg, Pred: m},
			{Cfg: cfg, Pred: m},
			{Cfg: cfg, Pred: core.NewOverriding(m, predictor.NewGShare(256, 0), 3)},
		}
	}
	got := RunMany(lanes(), workload.New(prof), nil, 20_000, 5_000)
	for i := range got {
		l := lanes()[i]
		if want := refRun(l.Cfg, l.Pred, workload.New(prof), 20_000, 5_000); !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d diverges from the reference:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestRunManyBadWarmup pins the measured-window guard: a warm-up below zero
// or at or past maxInsts would report a negative or empty instruction
// count, so RunMany panics with a message naming the workload and both
// counts — before it simulates anything, and for an empty lane list too.
func TestRunManyBadWarmup(t *testing.T) {
	src := workload.New(mustProfile(t, "gzip"))
	lanes := []Lane{{Cfg: DefaultConfig(), Pred: predictor.Taken{}}}
	for _, tc := range []struct {
		lanes            []Lane
		maxInsts, warmup int64
	}{
		{lanes, 1000, -1},
		{lanes, 1000, 1000},
		{lanes, 1000, 2000},
		{lanes, 0, 0},
		{nil, 1000, 1000},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			RunMany(tc.lanes, src, nil, tc.maxInsts, tc.warmup)
			return ""
		}()
		for _, want := range []string{"gzip", fmt.Sprint(tc.warmup), fmt.Sprint(tc.maxInsts)} {
			if !strings.Contains(msg, want) {
				t.Errorf("maxInsts %d warmup %d: panic %q does not contain %q", tc.maxInsts, tc.warmup, msg, want)
			}
		}
	}
	if n := src.InstsScanned(); n != 0 {
		t.Errorf("a rejected run consumed %d instructions", n)
	}
}

// TestRunManyStreamEndsInWarmup pins that a stream ending before the
// warm-up does is rejected, naming the workload, the instructions seen and
// the warm-up, instead of reporting a negative instruction count.
func TestRunManyStreamEndsInWarmup(t *testing.T) {
	rec := workload.Record(mustProfile(t, "twolf"), 8_000)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		RunMany([]Lane{{Cfg: DefaultConfig(), Pred: predictor.Taken{}}}, rec.Replay(), nil, 15_000, 10_000)
		return ""
	}()
	for _, want := range []string{"twolf", "8000", "10000"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not contain %q", msg, want)
		}
	}
}

func TestDeterministicIPC(t *testing.T) {
	a := run(predictor.NewGShareFromBudget(32<<10), "gap", 300000)
	b := run(predictor.NewGShareFromBudget(32<<10), "gap", 300000)
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts {
		t.Fatalf("nondeterministic timing: %d/%d vs %d/%d cycles/mispredicts",
			a.Cycles, a.Mispredicts, b.Cycles, b.Mispredicts)
	}
}

func TestTable1Parameters(t *testing.T) {
	// DESIGN.md's experiment index: Table 1 is reproduced by the default
	// machine configuration.
	cfg := DefaultConfig()
	if cfg.IssueWidth != 8 {
		t.Errorf("issue width %d, want 8", cfg.IssueWidth)
	}
	if cfg.PipelineDepth != 20 {
		t.Errorf("pipeline depth %d, want 20", cfg.PipelineDepth)
	}
	if cfg.L1I.SizeBytes != 64<<10 || cfg.L1I.LineBytes != 64 || cfg.L1I.Ways != 1 {
		t.Errorf("L1I %+v, want 64KB/64B/direct-mapped", cfg.L1I)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.LineBytes != 64 || cfg.L1D.Ways != 1 {
		t.Errorf("L1D %+v, want 64KB/64B/direct-mapped", cfg.L1D)
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.LineBytes != 128 || cfg.L2.Ways != 4 {
		t.Errorf("L2 %+v, want 2MB/128B/4-way", cfg.L2)
	}
	if cfg.BTBEntries != 512 || cfg.BTBWays != 2 {
		t.Errorf("BTB %d/%d, want 512 entries 2-way", cfg.BTBEntries, cfg.BTBWays)
	}
	if err := cfg.L1I.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUncheckpointedRecoveryCostsIPC(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 20, Latency: 8})
	}
	with := New(DefaultConfig(), mk()).Run(workload.New(prof), 400000, 100000)
	without := New(DefaultConfig(), core.WithoutCheckpointing(mk())).Run(workload.New(prof), 400000, 100000)
	if without.IPC() >= with.IPC() {
		t.Fatalf("uncheckpointed recovery did not cost IPC: %.3f vs %.3f",
			without.IPC(), with.IPC())
	}
}
