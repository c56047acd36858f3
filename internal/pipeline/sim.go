package pipeline

import (
	"fmt"

	"branchsim/internal/cache"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
)

// Sim is one timing simulation cell: a core configuration, a branch
// predictor organization, and an optional memory-latency sidecar.
//
// The model is an event-ordered scoreboard: instructions flow in program
// order through fetch → dispatch → issue → complete → commit, with each
// stage time computed from its structural and data constraints. This is the
// classic trace-driven out-of-order timing model: wrong-path instructions
// are not simulated; their cost appears as the redirect bubble between a
// mispredicted branch's resolution and the arrival of correct-path
// instructions, the same accounting the paper's modified SimpleScalar uses.
// The simulation itself is the engine in fused.go; a Sim is its one-lane
// caller.
type Sim struct {
	cfg  Config
	pred predictor.Predictor
	side *MemSidecar
}

// New returns a timing simulation of cfg using pred as the branch direction
// predictor organization. Pass a *core.Overriding to model the overriding
// delay-hiding scheme; a *core.GShareFast is driven with real fetch cycles;
// any other predictor is treated as answering in a single cycle (the paper's
// "no delay" idealization). An invalid cfg panics here, with the message
// RunMany gives for lane 0.
func New(cfg Config, pred predictor.Predictor) *Sim {
	checkLane(0, cfg)
	return &Sim{cfg: cfg, pred: pred}
}

// checkLane panics unless cfg describes a machine the engine can simulate,
// naming the lane and the full config so a bad grid cell is identifiable.
// A negative latency or depth would wrap in the engine's unsigned cycle
// arithmetic, the issue and port limits must fit the packed slot words
// (maxSlotLimit), and the BTB and cache geometry must be what btb.New and
// cache.New accept.
func checkLane(i int, cfg Config) {
	if cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 || cfg.CommitWidth <= 0 {
		panic(fmt.Sprintf("pipeline: invalid widths in lane %d config %+v", i, cfg))
	}
	if cfg.ROBSize <= 0 {
		panic(fmt.Sprintf("pipeline: ROB size must be positive in lane %d config %+v", i, cfg))
	}
	for _, n := range []int{cfg.IssueWidth, cfg.IntPorts, cfg.MemPorts, cfg.MulPorts, cfg.FPPorts} {
		if n < 1 || n > maxSlotLimit {
			panic(fmt.Sprintf("pipeline: issue width and port counts must lie in [1, %d] in lane %d config %+v",
				maxSlotLimit, i, cfg))
		}
	}
	for _, n := range []int{cfg.PipelineDepth, cfg.FrontEndDepth, cfg.MulLatency, cfg.FPLatency,
		cfg.L1DLatency, cfg.L2Latency, cfg.MemLatency, cfg.BTBMissPenalty} {
		if n < 0 {
			panic(fmt.Sprintf("pipeline: latencies and depths must not be negative in lane %d config %+v", i, cfg))
		}
	}
	if e, w := cfg.BTBEntries, cfg.BTBWays; e <= 0 || e&(e-1) != 0 || w <= 0 || e%w != 0 {
		panic(fmt.Sprintf("pipeline: BTB entries must be a power of two divided by its ways in lane %d config %+v", i, cfg))
	}
	for _, c := range []struct {
		name string
		cfg  cache.Config
	}{{"L1I", cfg.L1I}, {"L1D", cfg.L1D}, {"L2", cfg.L2}} {
		if err := c.cfg.Validate(); err != nil {
			panic(fmt.Sprintf("pipeline: invalid %s geometry (%v) in lane %d config %+v", c.name, err, i, cfg))
		}
	}
}

// Predictor returns the predictor organization under test.
func (s *Sim) Predictor() predictor.Predictor { return s.pred }

// SetMemSidecar attaches a precomputed memory-latency sidecar. It is used
// on a subsequent Run only when it covers that run exactly — same recording
// replayed from the start under the same cache geometry (see
// MemSidecar.covers); otherwise Run computes the same outcome classes batch
// by batch, so the sidecar changes only the cost of a run, never its
// Result.
func (s *Sim) SetMemSidecar(side *MemSidecar) { s.side = side }

// Run replays up to maxInsts instructions from src (a live generator or a
// recorded trace cursor), with the first warmupInsts excluded from the
// reported statistics (caches, predictors and scoreboard state still
// train); a warm-up outside [0, maxInsts) panics. It is RunMany with one
// lane: every call starts from a fresh scoreboard, caches and BTB, while
// the predictor keeps whatever state earlier runs trained into it.
func (s *Sim) Run(src trace.Source, maxInsts, warmupInsts int64) Result {
	return RunMany([]Lane{{Cfg: s.cfg, Pred: s.pred}}, src, s.side, maxInsts, warmupInsts)[0]
}
