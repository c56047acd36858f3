// Command reproduce regenerates the paper's tables and figures (and this
// repository's extra ablations) and prints them as text tables and charts.
//
// Examples:
//
//	reproduce                          # every experiment, default budgets
//	reproduce -experiment figure5
//	reproduce -experiment figure7 -insts 12000000 -warmup 3000000
//	reproduce -list
//
// Every experiment named declares its cells into one plan; the plan is
// executed once — one pass per benchmark straight off its generator, per
// block width for accuracy cells and per cache geometry (at most 24 lanes
// a pass) for timing cells — and then each experiment is rendered in the
// order named.
//
// Stdout is byte-for-byte reproducible for a given configuration: wall-clock
// lines only appear with -timings, and go to stderr. The result
// store (-store) does not change stdout either — store-served cells are
// bit-identical to fresh simulation — it only makes reruns incremental: a
// second run serves every cell from disk without generating a single
// stream, and a config tweak recomputes only the cells whose canonical
// identity changed. A cell's identity includes a digest of the code that
// computes it, so a binary built from edited simulator, predictor,
// delay-model or workload sources recomputes every cell rather than
// serving an older binary's numbers. Likewise -nofuse: grid fusion is an
// execution strategy, not an identity. -nofuse runs every cell through the
// same path as a one-lane group, and both modes print the same bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"branchsim/internal/experiments"
	"branchsim/internal/prof"
	"branchsim/internal/results"
	"branchsim/internal/resultstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the experiments, and writes the
// report to stdout and progress and errors to stderr, returning the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id or 'all'")
		insts      = fs.Int64("insts", 0, "instructions per benchmark (0 = default 8M)")
		warmup     = fs.Int64("warmup", 0, "warm-up instructions (0 = insts/4)")
		parallel   = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		jsonPath   = fs.String("json", "", "also write results as JSON to this path (for cmd/compare)")
		label      = fs.String("label", "", "label stored in the JSON results")
		timings    = fs.Bool("timings", false, "print the run's wall-clock timings and cell tallies to stderr")
		storeDir   = fs.String("store", ".resultstore", "persistent result-store directory (cells served from and written back to disk)")
		nostore    = fs.Bool("nostore", false, "disable the persistent result store; every cell simulates in-process")
		nofuse     = fs.Bool("nofuse", false, "run every accuracy and timing cell as a one-lane group: same path and results, one trace pass per cell")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkRun(*insts, *warmup); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer stopProf()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	var store *resultstore.Store
	if !*nostore && *storeDir != "" {
		store, err = resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	fuse := experiments.FuseAuto
	if *nofuse {
		fuse = experiments.FuseOff
	}
	opts := experiments.Options{Insts: *insts, Warmup: *warmup, Parallel: *parallel, Store: store, Fuse: fuse}
	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	plan, err := experiments.Plan(ids, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	start := time.Now()
	plan.Execute()
	executed := time.Since(start)
	start = time.Now()
	outcomes := plan.Render()
	rendered := time.Since(start)
	file := &results.File{Label: *label, Insts: opts.Insts, Warmup: opts.Warmup}
	for _, outcome := range outcomes {
		fmt.Fprint(stdout, outcome.Render())
		fmt.Fprintln(stdout)
		file.Experiments = append(file.Experiments, results.FromOutcome(outcome))
	}
	if *timings {
		tally := plan.Tally()
		fmt.Fprintf(stderr, "(plan: %d experiments executed in %v)\n", len(ids), executed.Round(time.Millisecond))
		fmt.Fprintf(stderr, "(render: %d experiments rendered in %v)\n", len(ids), rendered.Round(time.Millisecond))
		fmt.Fprintf(stderr, "(timing cells: %d distinct cells resolved, %d duplicate cells collapsed at plan time)\n",
			tally.Timing.Cells, tally.Timing.Collapsed)
		fmt.Fprintf(stderr, "(accuracy cells: %d distinct cells resolved, %d duplicate cells collapsed at plan time)\n",
			tally.Accuracy.Cells, tally.Accuracy.Collapsed)
		printFusion(stderr, "grid fusion", "accuracy", tally.Accuracy)
		printFusion(stderr, "timing fusion", "timing", tally.Timing)
		if store != nil {
			s := store.Stats()
			fmt.Fprintf(stderr, "(result store: %d cells served from disk, %d cold cells computed, %d invalid entries recomputed; %d cells written back, %d write errors)\n",
				s.Hits, s.Misses, s.Invalidations, s.Writes, s.WriteErrors)
		}
	}
	if *jsonPath != "" {
		if err := file.Save(*jsonPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "results written to %s\n", *jsonPath)
	}
	return 0
}

// printFusion writes one family's scheduler line for -timings: passes
// run, their mean width, and how the declared cells were served.
func printFusion(w io.Writer, label, family string, t experiments.FamilyTally) {
	meanLanes := 0.0
	if t.Passes > 0 {
		meanLanes = float64(t.Lanes) / float64(t.Passes)
	}
	fmt.Fprintf(w, "(%s: %d fused %s passes run (%.1f lanes each); %d %s cells served fused, %d served by the store)\n",
		label, t.Passes, family, meanLanes, t.Fused, family, t.Stored)
}

// checkRun rejects a run length or warm-up no experiment can honor. Zero
// selects a default for either flag, so only negative values are invalid
// on their own; an explicit warm-up must also leave at least one measured
// instruction of the effective run length.
func checkRun(insts, warmup int64) error {
	switch {
	case insts < 0:
		return fmt.Errorf("reproduce: -insts must be 0 (default %d) or positive, got %d", experiments.DefaultInsts, insts)
	case warmup < 0:
		return fmt.Errorf("reproduce: -warmup must be 0 (insts/4) or positive, got %d", warmup)
	}
	if insts == 0 {
		insts = experiments.DefaultInsts
	}
	if warmup >= insts {
		return fmt.Errorf("reproduce: -warmup %d must be below -insts %d", warmup, insts)
	}
	return nil
}
