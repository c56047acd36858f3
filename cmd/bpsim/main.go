// Command bpsim runs functional (accuracy-only) branch prediction
// simulations: one or more predictors over one or more synthetic SPECint2000
// benchmarks, reporting per-benchmark and mean misprediction rates.
//
// Benchmarks are the outer loop: every predictor is one lane of a single
// fused funcsim.RunMany pass straight off the benchmark's live generator,
// which filters its own branches and, under -perclass, classifies them.
// The pass is the only one over the stream, so nothing is recorded. The
// per-predictor report is printed once every benchmark is done, and the
// flags are checked first, so a bad -predictors kind, -budget, -insts or
// -warmup fails before any output.
//
// Examples:
//
//	bpsim -predictors gshare.fast,perceptron -budget 65536
//	bpsim -predictors gshare -budget 8192 -benchmarks gzip,twolf -insts 5000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/prof"
	"branchsim/internal/stats"
	"branchsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, simulates, and writes the report to
// stdout and any error to stderr, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		predictors = fs.String("predictors", "gshare.fast", "comma-separated predictor kinds")
		budget     = fs.Int("budget", 64<<10, "hardware budget in bytes")
		benchmarks = fs.String("benchmarks", "all", "comma-separated benchmark names or 'all'")
		insts      = fs.Int64("insts", workload.DefaultInstructions, "dynamic instructions per benchmark")
		warmup     = fs.Int64("warmup", 0, "warm-up instructions excluded from statistics")
		list       = fs.Bool("list", false, "list available predictors and benchmarks, then exit")
		perClass   = fs.Bool("perclass", false, "print per-branch-class misprediction diagnostics")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkRun(*budget, *insts, *warmup); err != nil {
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
		fmt.Fprintln(stdout, "predictors:", strings.Join(experiments.PredictorKinds(), " "))
		names := make([]string, 0, 12)
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(names, " "))
		return 0
	}

	profiles, err := selectProfiles(*benchmarks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	kinds := splitKinds(*predictors)
	opts := funcsim.Options{MaxInsts: *insts, WarmupInsts: *warmup, PerClass: *perClass}
	results, err := simulate(kinds, *budget, profiles, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printReport(stdout, kinds, *budget, *insts, *perClass, profiles, results)
	return 0
}

// checkRun rejects a budget, run length or warm-up no simulation can
// honor: the budget and run length must be positive, and the warm-up must
// leave at least one measured instruction.
func checkRun(budget int, insts, warmup int64) error {
	switch {
	case budget <= 0:
		return fmt.Errorf("bpsim: -budget must be positive, got %d", budget)
	case insts <= 0:
		return fmt.Errorf("bpsim: -insts must be positive, got %d", insts)
	case warmup < 0 || warmup >= insts:
		return fmt.Errorf("bpsim: -warmup must be in [0, -insts %d), got %d", insts, warmup)
	}
	return nil
}

// splitKinds returns the non-empty comma-separated predictor kinds.
func splitKinds(list string) []string {
	var kinds []string
	for _, kind := range strings.Split(list, ",") {
		if kind = strings.TrimSpace(kind); kind != "" {
			kinds = append(kinds, kind)
		}
	}
	return kinds
}

// simulate returns every kind's Result on every benchmark, indexed
// [kind][benchmark]. Each benchmark is one fused pass over a fresh
// generator. A benchmark's lanes are all built before its stream starts,
// so an unknown kind fails before anything is simulated.
func simulate(kinds []string, budget int, profiles []workload.Profile, opts funcsim.Options) ([][]funcsim.Result, error) {
	results := make([][]funcsim.Result, len(kinds))
	if len(kinds) == 0 {
		return results, nil
	}
	for _, prof := range profiles {
		lanes := make([]funcsim.Lane, len(kinds))
		for i, kind := range kinds {
			p, err := experiments.NewPredictor(kind, budget)
			if err != nil {
				return nil, err
			}
			lanes[i] = funcsim.Lane{P: p}
		}
		for i, r := range funcsim.RunMany(lanes, workload.New(prof), opts) {
			results[i] = append(results[i], r)
		}
	}
	return results, nil
}

// printReport writes one block per kind: a header, a line per benchmark
// (with per-class rates under -perclass), and the mean misprediction rate.
func printReport(w io.Writer, kinds []string, budget int, insts int64, perClass bool, profiles []workload.Profile, results [][]funcsim.Result) {
	for i, kind := range kinds {
		fmt.Fprintf(w, "%s @ %dKB (%d insts/benchmark)\n", kind, budget>>10, insts)
		var rates []float64
		for j, prof := range profiles {
			res := results[i][j]
			rates = append(rates, res.MispredictPercent())
			fmt.Fprintf(w, "  %-12s %7.3f%% mispredicted  (%d branches, predictor %s, %d bytes)\n",
				prof.ShortName(), res.MispredictPercent(), res.Branches,
				res.Predictor, res.PredSizeByte)
			if perClass {
				names := make([]string, 0, len(res.ClassRates))
				for n := range res.ClassRates {
					names = append(names, n)
				}
				sort.Strings(names)
				for _, n := range names {
					r := res.ClassRates[n]
					fmt.Fprintf(w, "      %-14s %7.3f%%  share %5.1f%%\n",
						n, r.Percent(), 100*float64(r.Total)/float64(res.Branches))
				}
			}
		}
		fmt.Fprintf(w, "  %-12s %7.3f%% (arithmetic mean)\n\n", "MEAN", stats.Mean(rates))
	}
}

func selectProfiles(names string) ([]workload.Profile, error) {
	if names == "all" || names == "" {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("bpsim: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}
