// Command perfbench is the repository's benchmark. It builds
// cmd/reproduce and cmd/ipcsim from the checkout it runs in, runs one
// workload as a series of fresh processes for a fixed time, checks every
// run's output against the golden tables in perfbench/golden, and prints
// the metrics as one JSON line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload timing-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it also runs perfbench/layers, the traced run, and prints
// per-layer metrics in place of the end-to-end ones. README.md describes
// the workloads, the metrics and the noise behind the bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"branchsim/perfbench/internal/spec"
)

const (
	// minReps is the fewest timed runs a median is taken over, however
	// short --seconds is.
	minReps = 3
	// setupReps is the number of set-ups per run; setup_s is their median.
	setupReps = 3
	// primeDiv scales a cold workload's instruction count down for its
	// set-up: a priming run of the same command at 1/primeDiv the length.
	primeDiv = 20
	// runLimit bounds everything after the build, so a hung process is
	// killed and the run ends without a result.
	runLimit = 170 * time.Second
	// outName is the -json file a cmd/reproduce run writes in its
	// directory, the only file it may leave there.
	outName = "out.json"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: timing-cold, accuracy-cold, store-warm or ipcsim-solo")
	seed := flag.Int64("seed", 0, "seed of the traced run's workload profiles (0 keeps the paper's); end-to-end inputs are fixed by the golden tables")
	seconds := flag.Float64("seconds", 20, "length of the timed region in seconds")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	update := flag.Bool("update-golden", false, "write this run's tables as the golden tables instead of checking them")
	flag.Parse()

	w, err := spec.ByName(*name)
	if err == nil {
		err = run(w, *seed, *seconds, *traced == 1, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sample is one measured process.
type sample struct {
	wall, cpu, rssMB float64
}

type runner struct {
	w      spec.Workload
	root   string // checkout root
	bin    string // built binaries
	work   string // this run's scratch directory
	ctx    context.Context
	update bool
	golden resultFile

	attempted, failed int

	// store-warm only: the store the last set-up filled, its cell file
	// count, and the tables that cold run printed.
	store      string
	storeCells int
	coldOut    resultFile
}

func run(w spec.Workload, seed int64, seconds float64, traced, update bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", w.Bin)); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	r := &runner{w: w, root: root, bin: filepath.Join(root, ".bench_build", "bin"), update: update}
	if err := r.build(traced); err != nil {
		return err
	}
	r.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)
	// A signal or the time limit kills the running process (see launch)
	// and ends the run without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	r.ctx = ctx

	if !update {
		if r.golden, err = loadResultFile(r.goldenPath()); err != nil {
			return fmt.Errorf("golden tables: %w", err)
		}
	}

	setups := r.setup()
	steal0 := stealSeconds()
	reps := r.timed(seconds)
	steal := stealSeconds() - steal0
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stopped: %w", err)
	}

	walls := make([]float64, len(reps))
	cpus := make([]float64, len(reps))
	rss := make([]float64, len(reps))
	for i, s := range reps {
		walls[i], cpus[i], rss[i] = s.wall, s.cpu, s.rssMB
	}
	wall := median(walls)
	metrics := map[string]metric{
		"wall_s":          {wall, "s"},
		"cpu_s":           {median(cpus), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"setup_s":         {median(setups), "s"},
		"sim_minst_per_s": {float64(w.Cells) * float64(w.Insts) / 1e6 / wall, "Minst/s"},
	}
	if traced {
		if metrics, err = r.layers(seed, wall); err != nil {
			return err
		}
	}

	q := func(xs []float64) [3]float64 {
		a, b, c := quartiles(xs)
		return [3]float64{a, b, c}
	}
	host := map[string]any{
		"workload":         w.Name,
		"seed":             seed,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"workers":          1,
		"go":               runtime.Version(),
		"steal_s":          steal,
		"reps":             len(reps),
		"wall_s_quartiles": q(walls),
		"cpu_s_quartiles":  q(cpus),
		"setup_s_values":   setups,
	}
	line, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// build compiles the entry points (and, for a traced run, perfbench/layers)
// into .bench_build/bin. The go build cache makes every build after the
// first in a checkout a no-op; none of it is timed.
func (r *runner) build(traced bool) error {
	if err := goBuild(r.root, r.bin, "./cmd/reproduce", "./cmd/ipcsim"); err != nil || !traced {
		return err
	}
	return goBuild(filepath.Join(r.root, "perfbench"), r.bin, "./layers")
}

func goBuild(dir, bin string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", strings.Join(pkgs, " "), err, out)
	}
	return nil
}

func (r *runner) goldenPath() string {
	return filepath.Join(r.root, "perfbench", "golden", r.w.Name+".json")
}

// args is the workload's command line at insts instructions per benchmark.
// A cmd/reproduce run without a store passes -nostore: the command's
// default store would turn every run after the first into a warm run.
// Every run uses one worker; README.md's Noise section gives the reason.
func (r *runner) args(insts int64, store string) []string {
	w := r.w
	n := strconv.FormatInt(insts, 10)
	if w.Bin == "ipcsim" {
		return []string{"-predictors", strings.Join(w.Kinds, ","), "-budget", strconv.Itoa(w.Budget),
			"-mode", "realistic", "-benchmarks", "all", "-insts", n}
	}
	a := []string{"-experiment", strings.Join(w.Experiments, ","), "-insts", n, "-parallel", "1", "-json", outName}
	if store == "" {
		return append(a, "-nostore")
	}
	return append(a, "-store", store)
}

// launch runs the workload's command once in dir, a fresh directory, and
// measures the process: wall-clock, user+sys CPU and peak RSS.
func (r *runner) launch(dir string, args []string) (sample, []byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, nil, err
	}
	cmd := exec.CommandContext(r.ctx, filepath.Join(r.bin, r.w.Bin), args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			s.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
		}
	}
	if err != nil {
		return s, nil, fmt.Errorf("%s %s: %v\n%s", r.w.Bin, strings.Join(args, " "), err, stderr.Bytes())
	}
	return s, stdout.Bytes(), nil
}

// count records one attempted operation and whether it failed.
func (r *runner) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// setup prepares the timed runs setupReps times and returns each
// preparation's wall-clock. store-warm fills a fresh result store with a
// cold run and keeps the last one for the timed runs. The cold workloads
// have nothing to fill; their set-up is a priming run of the same command
// at 1/primeDiv the instructions, which loads the binary and warms the
// host before timing.
func (r *runner) setup() []float64 {
	var times []float64
	for i := 0; i < setupReps && r.ctx.Err() == nil; i++ {
		dir := filepath.Join(r.work, fmt.Sprintf("setup-%d", i))
		var s sample
		var err error
		if r.w.Warm {
			s, err = r.fill(dir)
		} else {
			var out []byte
			s, out, err = r.launch(dir, r.args(r.w.Insts/primeDiv, ""))
			if err == nil {
				_, err = r.output(dir, out, outName)
			}
			os.RemoveAll(dir)
		}
		r.count(err)
		times = append(times, s.wall)
	}
	return times
}

// fill runs store-warm's cold run into a fresh store under dir and checks
// its tables against the golden ones.
func (r *runner) fill(dir string) (sample, error) {
	if r.store != "" {
		os.RemoveAll(filepath.Dir(r.store))
	}
	store := filepath.Join(dir, "store")
	s, out, err := r.launch(dir, r.args(r.w.Insts, store))
	if err != nil {
		return s, err
	}
	got, err := r.output(dir, out, outName, "store")
	if err != nil {
		return s, err
	}
	if err := r.checkGolden(got); err != nil {
		return s, fmt.Errorf("store-warm set-up: %w", err)
	}
	r.store, r.coldOut = store, got
	r.storeCells, err = countFiles(store)
	if err == nil && r.storeCells == 0 {
		err = errors.New("store-warm set-up wrote no cells")
	}
	return s, err
}

// timed runs the workload as fresh processes until the next run would
// end past seconds (at least minReps runs), checking every run.
func (r *runner) timed(seconds float64) []sample {
	var reps []sample
	var walls []float64
	start := time.Now()
	for i := 0; r.ctx.Err() == nil && (i < minReps || time.Since(start).Seconds()+median(walls) <= seconds); i++ {
		dir := filepath.Join(r.work, fmt.Sprintf("rep-%d", i))
		s, out, err := r.launch(dir, r.args(r.w.Insts, r.store))
		if err == nil {
			err = r.check(dir, out)
		}
		os.RemoveAll(dir)
		r.count(err)
		reps = append(reps, s)
		walls = append(walls, s.wall)
	}
	return reps
}

// check verifies one timed run: its tables match the golden ones, it left
// no result store behind, and a warm run reproduced the cold run's tables
// exactly without writing a cell.
func (r *runner) check(dir string, out []byte) error {
	var allowed []string
	if r.w.Bin == "reproduce" {
		allowed = []string{outName}
	}
	got, err := r.output(dir, out, allowed...)
	if err != nil {
		return err
	}
	if err := r.checkGolden(got); err != nil {
		return err
	}
	if !r.w.Warm {
		return nil
	}
	if bad := append(compareGolden(r.coldOut, got), compareGolden(got, r.coldOut)...); len(bad) > 0 {
		return fmt.Errorf("warm run differs from the cold run: %s", strings.Join(first(bad, 5), "; "))
	}
	n, err := countFiles(r.store)
	if err == nil && n != r.storeCells {
		err = fmt.Errorf("warm run changed the store: %d cell files, the set-up wrote %d", n, r.storeCells)
	}
	return err
}

// checkGolden compares got with the golden tables, or makes got the golden
// tables under --update-golden.
func (r *runner) checkGolden(got resultFile) error {
	if r.update {
		r.update = false
		r.golden = got
		return saveResultFile(r.goldenPath(), got)
	}
	if bad := compareGolden(r.golden, got); len(bad) > 0 {
		return fmt.Errorf("%d golden values differ: %s", len(bad), strings.Join(first(bad, 5), "; "))
	}
	return nil
}

// output reads a run's tables — cmd/reproduce's -json file or cmd/ipcsim's
// report — after checking that dir holds nothing but the allowed entries:
// a cold run that opened a result store would leave one behind.
func (r *runner) output(dir string, stdout []byte, allowed ...string) (resultFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return resultFile{}, err
	}
	for _, e := range entries {
		if !slices.Contains(allowed, e.Name()) {
			return resultFile{}, fmt.Errorf("run left %q in its directory", e.Name())
		}
	}
	if r.w.Bin == "ipcsim" {
		return parseIPCSim(stdout)
	}
	return loadResultFile(filepath.Join(dir, outName))
}

// layers runs the traced run on the same workload and returns its
// per-layer metrics, adding unattributed_s against wall, the untraced
// median wall-clock.
func (r *runner) layers(seed int64, wall float64) (map[string]metric, error) {
	spans := filepath.Join(r.root, ".bench_build", "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-workload", r.w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-tmp", filepath.Join(r.work, "layers"),
		"-spans", filepath.Join(spans, fmt.Sprintf("%s-seed%d.json", r.w.Name, seed))}
	if r.w.Warm {
		args = append(args, "-store", r.store)
	}
	cmd := exec.CommandContext(r.ctx, filepath.Join(r.bin, "layers"), args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	var lr struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		CoveredS  float64           `json:"covered_s"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &lr); err != nil {
		return nil, fmt.Errorf("traced run output: %w", err)
	}
	r.attempted += lr.Attempted
	r.failed += lr.Failed
	lr.Metrics["unattributed_s"] = metric{wall - lr.CoveredS, "s"}
	if r.w.Warm {
		lr.Metrics["resultstore.cells"] = metric{float64(r.storeCells), "count"}
	}
	return lr.Metrics, nil
}

func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			n++
		}
		return err
	})
	return n, err
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func first(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// stealSeconds reads the host's cumulative steal time from /proc/stat, the
// CPU time the hypervisor gave to other guests; 0 where it is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
