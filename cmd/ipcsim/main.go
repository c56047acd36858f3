// Command ipcsim runs cycle-level timing simulations: one or more predictor
// organizations over the synthetic SPECint2000 benchmarks, reporting
// per-benchmark IPC and the harmonic mean (the paper's Figures 2, 7 and 8).
//
// The -mode flag selects the organization:
//
//	ideal      the predictor answers in a single cycle regardless of size
//	           (the paper's "no delay" curves)
//	realistic  complex predictors sit behind a 2K-entry quick gshare in an
//	           overriding organization with delay-model latency;
//	           gshare.fast runs pipelined and needs no overriding
//
// Benchmarks are the outer loop: every predictor kind is one lane of a
// single fused pipeline.RunMany pass straight off the benchmark's live
// generator. The pass is the only one over the stream, so nothing is
// recorded: the engine classifies each batch's memory accesses with one
// hierarchy shared by the lanes, and memory stays flat in -insts. The
// per-predictor report is printed once every benchmark is done, and the
// flags are checked first, so a bad -predictors kind, -mode, -budget,
// -insts or -warmup fails before any output.
//
// Example:
//
//	ipcsim -predictors gshare.fast,perceptron -budget 65536 -mode realistic
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"branchsim/internal/experiments"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
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
	fs := flag.NewFlagSet("ipcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		predictors = fs.String("predictors", "gshare.fast", "comma-separated predictor kinds")
		budget     = fs.Int("budget", 64<<10, "hardware budget in bytes")
		benchmarks = fs.String("benchmarks", "all", "comma-separated benchmark names or 'all'")
		insts      = fs.Int64("insts", workload.DefaultInstructions, "dynamic instructions per benchmark")
		warmup     = fs.Int64("warmup", 0, "warm-up instructions excluded from statistics")
		mode       = fs.String("mode", "realistic", "predictor timing: ideal or realistic")
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

	profiles, err := selectProfiles(*benchmarks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	kinds := splitKinds(*predictors)
	results, err := simulate(kinds, *budget, *mode, profiles, *insts, *warmup)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printReport(stdout, kinds, *budget, *mode, *insts, profiles, results)
	return 0
}

// checkRun rejects a budget, run length or warm-up no simulation can
// honor: the budget and run length must be positive, and the warm-up must
// leave at least one measured instruction.
func checkRun(budget int, insts, warmup int64) error {
	switch {
	case budget <= 0:
		return fmt.Errorf("ipcsim: -budget must be positive, got %d", budget)
	case insts <= 0:
		return fmt.Errorf("ipcsim: -insts must be positive, got %d", insts)
	case warmup < 0 || warmup >= insts:
		return fmt.Errorf("ipcsim: -warmup must be in [0, -insts %d), got %d", insts, warmup)
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
// so an unknown kind or mode fails before anything is simulated.
func simulate(kinds []string, budget int, mode string, profiles []workload.Profile, insts, warmup int64) ([][]pipeline.Result, error) {
	results := make([][]pipeline.Result, len(kinds))
	if len(kinds) == 0 {
		return results, nil
	}
	cfg := pipeline.DefaultConfig()
	for _, prof := range profiles {
		lanes := make([]pipeline.Lane, len(kinds))
		for i, kind := range kinds {
			p, err := buildPredictor(kind, budget, mode)
			if err != nil {
				return nil, err
			}
			lanes[i] = pipeline.Lane{Cfg: cfg, Pred: p}
		}
		for i, r := range pipeline.RunMany(lanes, workload.New(prof), nil, insts, warmup) {
			results[i] = append(results[i], r)
		}
	}
	return results, nil
}

// printReport writes one block per kind: a header, a line per benchmark,
// and the harmonic-mean IPC.
func printReport(w io.Writer, kinds []string, budget int, mode string, insts int64, profiles []workload.Profile, results [][]pipeline.Result) {
	for i, kind := range kinds {
		fmt.Fprintf(w, "%s @ %dKB, %s timing (%d insts/benchmark)\n", kind, budget>>10, mode, insts)
		var ipcs []float64
		for j, prof := range profiles {
			res := results[i][j]
			ipcs = append(ipcs, res.IPC())
			extra := ""
			if res.OverrideRate > 0 {
				extra = fmt.Sprintf("  override %.2f%%", 100*res.OverrideRate)
			}
			fmt.Fprintf(w, "  %-12s IPC %6.3f  (mispredict %5.2f%%%s)\n",
				prof.ShortName(), res.IPC(), res.MispredictPercent(), extra)
		}
		fmt.Fprintf(w, "  %-12s IPC %6.3f (harmonic mean)\n\n", "HMEAN", stats.HarmonicMean(ipcs))
	}
}

// buildPredictor assembles the predictor organization for the mode.
func buildPredictor(kind string, budget int, mode string) (predictor.Predictor, error) {
	switch mode {
	case "ideal":
		return experiments.NewPredictor(kind, budget)
	case "realistic":
		if kind == "gshare.fast" {
			// gshare.fast is pipelined: realistic and ideal timing
			// coincide by design.
			return experiments.NewPredictor(kind, budget)
		}
		return experiments.NewOverriding(kind, budget)
	default:
		return nil, fmt.Errorf("ipcsim: unknown mode %q (ideal or realistic)", mode)
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
			return nil, fmt.Errorf("ipcsim: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}
