// Command delaycalc prints the delay model's estimates: SRAM access times
// in FO4 and cycles, predictor latencies across budgets (Table 2), and the
// largest single-cycle PHT.
package main

import (
	"flag"
	"fmt"
	"os"

	"branchsim/internal/delaymodel"
	"branchsim/internal/experiments"
)

func main() {
	var (
		bytes   = flag.Int("bytes", 0, "print access time for one table of this many bytes")
		entries = flag.Int("entries", 0, "entry count for -bytes (defaults to bytes*4, 2-bit counters)")
	)
	flag.Parse()

	m := delaymodel.Default
	if *bytes > 0 {
		e := *entries
		if e == 0 {
			e = *bytes * 4
		}
		fo4 := m.AccessFO4(*bytes, e)
		fmt.Printf("%d bytes, %d entries: %.1f FO4 = %d cycles at %g FO4/clock\n",
			*bytes, e, fo4, m.CyclesFor(fo4), m.ClockFO4)
		return
	}

	fmt.Printf("clock: %g FO4 (3.5 GHz at 100 nm, after Hrishikesh et al.)\n", m.ClockFO4)
	fmt.Printf("largest single-cycle PHT: %d entries\n\n", m.SingleCycleEntries())
	outs, err := experiments.Run([]string{"table2"}, experiments.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(outs[0].Render())

	fmt.Println("predictor area at the 90nm SRAM anchor (§3.3.2):")
	for _, kb := range []int{16, 64, 100, 256, 512} {
		bytes := kb << 10
		fmt.Printf("  %4d KB: %6.2f mm² (%.1f%% of a %d mm² die)\n",
			kb, delaymodel.AreaMM2(bytes), 100*delaymodel.ChipFraction(bytes),
			int(delaymodel.ChipAreaMM2))
	}
}
