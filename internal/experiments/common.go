package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/textplot"
	"branchsim/internal/workload"
)

//go:generate go run gencodedigest.go

// cellCode is every cell key's Code: the digest of the code that computes
// the cell (codeDigest, generated into codedigest.go) and the toolchain
// that compiled it. With the profile's name and seed and the run length,
// it also names the cell's stream, so no key needs the stream's bytes.
var cellCode = codeDigest + " " + runtime.Version()

// machineString renders cfg's canonical form for the persistent store's
// Machine key component. %+v over Config.Canonical is deterministic and
// self-extending: a new Config field changes the rendering, which
// invalidates every dependent cell by construction.
func machineString(cfg pipeline.Config) string {
	return fmt.Sprintf("%+v", cfg.Canonical())
}

// FuseMode selects how a plan's accuracy and timing cells are grouped into
// passes. It is an execution strategy, not an identity: both modes
// run the same path and publish bit-identical Results under the same
// canonical keys (TestFusedEquivalence, TestFusedTimingPlan), so the knob
// exists only to measure what fusion buys.
type FuseMode int

const (
	// FuseAuto — the zero value, so fusion is the default — groups a
	// plan's cold accuracy cells by (benchmark, block width) and its cold
	// timing cells by (benchmark, cache geometry), at most maxTimingLanes
	// to a group, and runs each group through one fused pass
	// (funcsim.RunMany / pipeline.RunMany): one walk of the benchmark's
	// generator feeds every lane of the group.
	FuseAuto FuseMode = iota
	// FuseOff makes every accuracy and timing cell a group of one: the
	// same store → simulate path, one lane per pass
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
	// processes. Nil simulates every distinct cell.
	Store *resultstore.Store
	// Fuse selects how the accuracy and timing cells are grouped; the
	// zero value (FuseAuto) runs them grid-fused, one pass per group.
	Fuse FuseMode
}

// DefaultInsts is the instruction budget a zero Options.Insts selects.
const DefaultInsts = 8_000_000

func (o Options) normalize() Options {
	if o.Insts <= 0 {
		o.Insts = DefaultInsts
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
