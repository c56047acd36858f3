package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"branchsim/internal/core"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/textplot"
	"branchsim/internal/trace"
	"branchsim/internal/tracestore"
	"branchsim/internal/workload"
)

// traceStore memoizes each benchmark's recorded stream across every
// experiment grid in the process: the first (kind × budget × benchmark)
// cell to touch a benchmark records its live stream, all later cells —
// including cells of other experiments run with the same instruction
// budget — replay it. Replay is bit-identical to live generation
// (internal/tracestore's equivalence tests), so results are unchanged; only
// the per-cell generation cost disappears.
var traceStore = tracestore.New()

// source returns a replay cursor over prof's memoized recording at
// opts.Insts instructions.
func source(prof workload.Profile, opts Options) trace.Source {
	key := tracestore.Key{Name: prof.Name, Seed: prof.Seed, Insts: opts.Insts}
	return traceStore.Source(key, func() trace.Source { return workload.New(prof) })
}

// sidecar returns the memoized memory-latency sidecar for prof's recording
// under cfg's cache geometry (see pipeline.BuildMemSidecar).
func sidecar(prof workload.Profile, opts Options, cfg pipeline.Config) *pipeline.MemSidecar {
	key := tracestore.Key{Name: prof.Name, Seed: prof.Seed, Insts: opts.Insts}
	return traceStore.MemSidecar(key, pipeline.MemGeometryOf(cfg),
		func() trace.Source { return workload.New(prof) })
}

// traceDigest returns the content digest of prof's recorded stream at
// opts.Insts instructions — the identity that binds persistent store
// entries to the exact bytes they were measured on.
func traceDigest(prof workload.Profile, opts Options) string {
	key := tracestore.Key{Name: prof.Name, Seed: prof.Seed, Insts: opts.Insts}
	return traceStore.Digest(key, func() trace.Source { return workload.New(prof) })
}

// machineString renders cfg's canonical form for the persistent store's
// Machine key component. %+v over Config.Canonical is deterministic and
// self-extending: a new Config field changes the rendering, which
// invalidates every dependent cell by construction.
func machineString(cfg pipeline.Config) string {
	return fmt.Sprintf("%+v", cfg.Canonical())
}

// TraceStoreStats reports the process-wide trace store's footprint:
// memoized recordings and their total bytes.
func TraceStoreStats() (recordings int, bytes int64) {
	return traceStore.Len(), traceStore.SizeBytes()
}

// SidecarStats reports the process-wide store's memory-latency sidecars:
// precomputed (recording, geometry) columns and their total bytes.
func SidecarStats() (sidecars int, bytes int64) {
	return traceStore.SidecarLen(), traceStore.SidecarSizeBytes()
}

// FuseMode selects how a plan's accuracy and timing cells are grouped into
// trace passes. It is an execution strategy, not an identity: both modes
// run the same path and publish bit-identical Results under the same
// canonical keys (TestFusedEquivalence, TestFusedTimingPlan), so the knob
// exists only to measure what fusion buys.
type FuseMode int

const (
	// FuseAuto — the zero value, so fusion is the default — groups a
	// plan's cold accuracy cells by benchmark and its cold timing cells by
	// (benchmark, cache geometry), and runs each group through one fused
	// trace pass (funcsim.RunMany / pipeline.RunMany): one cursor walk
	// feeds every lane of the group.
	FuseAuto FuseMode = iota
	// FuseOff makes every accuracy and timing cell a group of one: the
	// same cache → store → simulate path, one lane per trace pass
	// (cmd/reproduce -nofuse).
	FuseOff
)

// Options configures an experiment run.
type Options struct {
	// Insts is the dynamic instruction budget per benchmark; Warmup
	// instructions are excluded from statistics. Zero selects the
	// defaults (8M / 2M), the scaled-down equivalent of the paper's
	// >1B-instruction runs with a 500M skip (the synthetic programs have
	// no initialization phase and reach steady state much sooner).
	Insts  int64
	Warmup int64
	// Parallel bounds concurrent simulations; zero means GOMAXPROCS.
	Parallel int
	// Store, when non-nil, is the persistent result store cold cells
	// resolve through before simulating: distinct cells hit disk first, and
	// fresh computes are written back, making reruns incremental across
	// processes. Nil keeps everything in-memory.
	Store *resultstore.Store
	// Fuse selects how the accuracy and timing cells are grouped; the
	// zero value (FuseAuto) runs them grid-fused, one trace pass per
	// group.
	Fuse FuseMode
}

func (o Options) normalize() Options {
	if o.Insts <= 0 {
		o.Insts = 8_000_000
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Insts / 4
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// Outcome is a rendered experiment: tables, charts and notes, plus the raw
// grids for programmatic checks (tests, EXPERIMENTS.md generation).
type Outcome struct {
	ID     string
	Title  string
	Tables []*textplot.Table
	Charts []*textplot.Chart
	Notes  []string
}

// Render returns the outcome as text.
func (o *Outcome) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", o.ID, o.Title)
	for _, t := range o.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, c := range o.Charts {
		b.WriteString(c.Render())
		b.WriteByte('\n')
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table returns the outcome's table with the given title prefix, or nil.
func (o *Outcome) Table(prefix string) *textplot.Table {
	for _, t := range o.Tables {
		if strings.HasPrefix(t.Title, prefix) {
			return t
		}
	}
	return nil
}

// mustPredictor builds a predictor for a kind hardwired into an experiment
// table. An unknown kind or bad budget there is a programmer error, so it
// panics; NewPredictor's errors are already "experiments: "-prefixed, and
// the prefix is stripped before re-prefixing so it appears exactly once.
func mustPredictor(kind string, budgetBytes int) predictor.Predictor {
	p, err := NewPredictor(kind, budgetBytes)
	if err != nil {
		panic("experiments: " + strings.TrimPrefix(err.Error(), "experiments: "))
	}
	return p
}

// mustOverriding is mustPredictor for overriding organizations.
func mustOverriding(kind string, budgetBytes int) *core.Overriding {
	o, err := NewOverriding(kind, budgetBytes)
	if err != nil {
		panic("experiments: " + strings.TrimPrefix(err.Error(), "experiments: "))
	}
	return o
}

// budgetLabel renders a budget the way the paper's x axes do.
func budgetLabel(bytes int) string {
	return fmt.Sprintf("%dK", bytes>>10)
}

// benchNames returns the short benchmark names in SPEC order.
func benchNames() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.ShortName())
	}
	return names
}
