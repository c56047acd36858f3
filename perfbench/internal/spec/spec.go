// Package spec defines the benchmark's workloads: the entry point each one
// starts, the inputs it runs, and the simulated work it delivers. perfbench
// builds its command lines from it and the traced run rebuilds the same
// inputs from it, so the two cannot drift apart.
package spec

import "fmt"

// Workload is one named benchmark workload.
type Workload struct {
	Name string
	// Bin is the command under cmd/ that the timed run starts.
	Bin string
	// Experiments are the cmd/reproduce experiment ids, in run order.
	Experiments []string
	// Kinds and Budget are the cmd/ipcsim predictor kinds and budget.
	Kinds  []string
	Budget int
	// Insts is the instruction count per benchmark.
	Insts int64
	// Warm fills a fresh result store with a cold run of Experiments during
	// set-up and times a rerun served from that store.
	Warm bool
	// Cells is the number of distinct grid cells the timed run delivers
	// (simulated, or served from the store). Cells × Insts is the
	// lane-instruction count behind sim_minst_per_s.
	Cells int
}

// Workloads lists every workload, in the order BENCHMARK.json names them.
var Workloads = []Workload{
	{
		// Figures 2/7/8: 42 distinct timing cells per benchmark × 12.
		Name:        "timing-cold",
		Bin:         "reproduce",
		Experiments: []string{"figure2", "figure7", "figure8"},
		Insts:       125_000,
		Cells:       504,
	},
	{
		// Figures 1/5/6: 48 distinct accuracy cells per benchmark × 12.
		Name:        "accuracy-cold",
		Bin:         "reproduce",
		Experiments: []string{"figure1", "table2", "figure5", "figure6"},
		Insts:       500_000,
		Cells:       576,
	},
	{
		// The accuracy grid plus Figure 8's 4 timing cells per benchmark.
		Name:        "store-warm",
		Bin:         "reproduce",
		Experiments: []string{"figure1", "table2", "figure5", "figure6", "figure8"},
		Insts:       500_000,
		Warm:        true,
		Cells:       624,
	},
	{
		Name:   "ipcsim-solo",
		Bin:    "ipcsim",
		Kinds:  []string{"gshare.fast", "perceptron", "multicomponent"},
		Budget: 64 << 10,
		Insts:  1_000_000,
		Cells:  36,
	},
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Warmup is the warm-up window cmd/reproduce uses by default for insts
// instructions per benchmark.
func Warmup(insts int64) int64 { return insts / 4 }
