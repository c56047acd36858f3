package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// An experiment declares its cells into a run's shared plan and returns
// the closure that renders its Outcome once the plan has executed.
type experiment func(plan *cellPlan) (render func() *Outcome)

// Runner executes one experiment.
type Runner func(Options) *Outcome

// Registry maps experiment ids to their declarations, in the order
// DESIGN.md's experiment index lists them.
var Registry = []struct {
	ID      string
	declare experiment
}{
	{"figure1", figure1},
	{"table2", table2},
	{"figure2", figure2},
	{"figure5", figure5},
	{"figure6", figure6},
	{"figure7", figure7},
	{"figure8", figure8},
	{"delayedupdate", delayedUpdate},
	{"overriderate", overrideRate},
	{"multibranch", multiBranch},
	{"buffersweep", bufferSweep},
	{"quicksweep", quickSizeSweep},
	{"depthsweep", depthSweep},
	{"fastfamily", fastFamily},
	{"recovery", recovery},
}

// IDs returns the registered experiment ids in run order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// lookup returns the declaration registered under id.
func lookup(id string) (experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.declare, nil
		}
	}
	sorted := append([]string{}, IDs()...)
	sort.Strings(sorted)
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(sorted, ", "))
}

// ByID returns the runner for an experiment id: a Run of that experiment
// alone, which panics where Run would return an error.
func ByID(id string) (Runner, error) {
	d, err := lookup(id)
	if err != nil {
		return nil, err
	}
	return func(opts Options) *Outcome {
		rp := declare([]experiment{d}, opts)
		if err := rp.Execute(); err != nil {
			panic(fmt.Sprintf("experiments: running %s: %v", id, err))
		}
		return rp.Render()[0]
	}, nil
}

// A RunPlan is one run's experiments declared into one shared plan: each
// cell any of them declares is simulated at most once, and each
// (benchmark, block width) accuracy group and (benchmark, cache geometry)
// timing group is one pass off the benchmark's generator (timing groups
// split at maxTimingLanes), whichever experiments its cells belong to.
type RunPlan struct {
	plan    *cellPlan
	renders []func() *Outcome
	tally   Tally
}

// Plan declares the experiments ids name, in that order, into one plan
// under opts. An unknown id fails before any experiment is declared.
func Plan(ids []string, opts Options) (*RunPlan, error) {
	decls := make([]experiment, len(ids))
	for i, id := range ids {
		d, err := lookup(id)
		if err != nil {
			return nil, err
		}
		decls[i] = d
	}
	return declare(decls, opts), nil
}

// declare declares decls, in order, into one new plan under opts.
func declare(decls []experiment, opts Options) *RunPlan {
	rp := &RunPlan{plan: newPlan(opts)}
	for _, d := range decls {
		rp.renders = append(rp.renders, d(rp.plan))
	}
	return rp
}

// Execute resolves every cell of the plan: through the persistent store
// when Options.Store is set, then one pass per group. It fails, naming
// the cell, when a timing cell's measured window spans no cycles
// (pipeline.Result.CheckCycles); Render must not follow.
func (rp *RunPlan) Execute() error {
	var err error
	rp.tally, err = rp.plan.execute()
	return err
}

// Render returns each experiment's Outcome, in the order Plan declared
// them. It reads the cells Execute filled.
func (rp *RunPlan) Render() []*Outcome {
	outs := make([]*Outcome, len(rp.renders))
	for i, render := range rp.renders {
		outs[i] = render()
	}
	return outs
}

// Tally reports what Execute did, per family: distinct cells, duplicate
// cells collapsed at plan time, passes run and the lanes they carried, and
// how each declared cell was served. It is scoped to this plan; nothing is
// counted process-wide.
func (rp *RunPlan) Tally() Tally { return rp.tally }

// Run declares the experiments ids name into one plan, executes it once,
// and renders each experiment in the order ids lists them.
func Run(ids []string, opts Options) ([]*Outcome, error) {
	rp, err := Plan(ids, opts)
	if err != nil {
		return nil, err
	}
	if err := rp.Execute(); err != nil {
		return nil, err
	}
	return rp.Render(), nil
}
