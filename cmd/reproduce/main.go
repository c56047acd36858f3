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
// Stdout is byte-for-byte reproducible for a given configuration: wall-clock
// progress lines only appear with -timings, and go to stderr. The result
// store (-store) does not change stdout either — store-served cells are
// bit-identical to fresh simulation — it only makes reruns incremental: a
// second run serves every cell from disk, and a config tweak recomputes
// only the cells whose canonical identity changed. Likewise -nofuse: grid
// fusion (one trace pass per benchmark, or per benchmark and cache
// geometry for timing cells, feeding every lane) is an execution strategy,
// not an identity. -nofuse runs every cell through the same path as a
// one-lane group, and both modes print the same bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"branchsim/internal/experiments"
	"branchsim/internal/prof"
	"branchsim/internal/results"
	"branchsim/internal/resultstore"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		insts      = flag.Int64("insts", 0, "instructions per benchmark (0 = default 8M)")
		warmup     = flag.Int64("warmup", 0, "warm-up instructions (0 = insts/4)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath   = flag.String("json", "", "also write results as JSON to this path (for cmd/compare)")
		label      = flag.String("label", "", "label stored in the JSON results")
		timings    = flag.Bool("timings", false, "print per-experiment wall-clock timings to stderr")
		storeDir   = flag.String("store", ".resultstore", "persistent result-store directory (cells served from and written back to disk)")
		nostore    = flag.Bool("nostore", false, "disable the persistent result store; every cell simulates in-process")
		nofuse     = flag.Bool("nofuse", false, "run every accuracy and timing cell as a one-lane group: same path and results, one trace pass per cell")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this path")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var store *resultstore.Store
	if !*nostore && *storeDir != "" {
		store, err = resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
	}
	file := &results.File{Label: *label, Insts: opts.Insts, Warmup: opts.Warmup}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		outcome := runner(opts)
		fmt.Print(outcome.Render())
		fmt.Println()
		if *timings {
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(start).Round(time.Millisecond))
		}
		file.Experiments = append(file.Experiments, results.FromOutcome(outcome))
	}
	if *timings {
		n, bytes := experiments.TraceStoreStats()
		fmt.Fprintf(os.Stderr, "(trace store: %d recordings, %.1f MB; streams generated once, replayed per grid cell)\n",
			n, float64(bytes)/(1<<20))
		sn, sbytes := experiments.SidecarStats()
		fmt.Fprintf(os.Stderr, "(mem sidecars: %d columns, %.1f MB; cache hierarchy simulated once per recording+geometry)\n",
			sn, float64(sbytes)/(1<<20))
		cells, hits := experiments.TimingMemoStats()
		fmt.Fprintf(os.Stderr, "(timing memo: %d distinct cells simulated, %d duplicate cells served from memory)\n",
			cells, hits)
		acells, ahits := experiments.AccuracyMemoStats()
		fmt.Fprintf(os.Stderr, "(accuracy memo: %d distinct cells simulated, %d duplicate cells served from memory)\n",
			acells, ahits)
		groups, lanes, fusedCells, soloCells := experiments.FusionStats()
		meanLanes := 0.0
		if groups > 0 {
			meanLanes = float64(lanes) / float64(groups)
		}
		fmt.Fprintf(os.Stderr, "(grid fusion: %d fused trace passes run (%.1f lanes each); %d accuracy cells served fused, %d solo)\n",
			groups, meanLanes, fusedCells, soloCells)
		tgroups, tlanes, tfusedCells, tsoloCells := experiments.TimingFusionStats()
		tmeanLanes := 0.0
		if tgroups > 0 {
			tmeanLanes = float64(tlanes) / float64(tgroups)
		}
		fmt.Fprintf(os.Stderr, "(timing fusion: %d fused timing passes run (%.1f lanes each); %d timing cells served fused, %d solo)\n",
			tgroups, tmeanLanes, tfusedCells, tsoloCells)
		if store != nil {
			s := store.Stats()
			fmt.Fprintf(os.Stderr, "(result store: %d cells served from disk, %d cold cells computed, %d invalid entries recomputed; %d cells written back, %d write errors)\n",
				s.Hits, s.Misses, s.Invalidations, s.Writes, s.WriteErrors)
		}
	}
	if *jsonPath != "" {
		if err := file.Save(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonPath)
	}
}
