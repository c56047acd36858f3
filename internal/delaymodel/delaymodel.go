// Package delaymodel estimates branch-predictor access latency in cycles,
// standing in for the modified CACTI 3.0 runs the paper uses (§4.1.5,
// Table 2). It is an analytic SRAM timing model expressed in fan-out-of-four
// inverter (FO4) delays, the technology-independent unit the paper's clock
// is specified in (8 FO4 per cycle: 6 of useful work + 2 of latch overhead,
// after Hrishikesh et al.).
//
// The model is calibrated against the paper's anchors rather than absolute
// silicon numbers:
//
//   - A 1K-entry PHT (256 B) is the largest table readable in a single
//     8-FO4 cycle (§2.5, citing Jiménez, Keckler and Lin, MICRO-33).
//   - Large predictor tables in the hundreds of kilobytes reach roughly
//     9-11 cycles (Table 2's 512 KB-832 KB rows).
//   - Branch-predictor tables decode deeper than same-size caches because
//     they have far more, far smaller entries (§2.3.1) — hence the
//     log2(entries) decoder term alongside the sqrt(bytes) wire term.
package delaymodel

import (
	"fmt"
	"math"
)

// ClockFO4 is the paper's aggressive clock period in FO4 delays (§4.1.2),
// corresponding to 3.5 GHz in 100 nm technology.
const ClockFO4 = 8.0

// Model holds the calibration constants of the analytic SRAM model. The zero
// value is unusable; use Default.
type Model struct {
	// BaseFO4 covers sense amps, output drive and latch setup.
	BaseFO4 float64
	// DecodeFO4PerBit is the decoder depth cost per doubling of entries.
	DecodeFO4PerBit float64
	// WireFO4PerSqrtByte is the word/bit-line flight cost, growing with
	// the physical side length of the array.
	WireFO4PerSqrtByte float64
	// ClockFO4 is the cycle time in FO4s.
	ClockFO4 float64
}

// Default is the calibrated model used throughout the repository. With these
// constants a 256 B, 1K-entry PHT costs 7.3 FO4 (just under one cycle), a
// 128 KB table costs about 5 cycles, and a 512 KB table about 9 — matching
// the paper's anchors.
var Default = Model{
	BaseFO4:            2.0,
	DecodeFO4PerBit:    0.40,
	WireFO4PerSqrtByte: 0.084,
	ClockFO4:           ClockFO4,
}

// AccessFO4 returns the access time, in FO4 delays, of an SRAM table holding
// the given number of independently addressed entries in the given number of
// bytes.
func (m Model) AccessFO4(bytes, entries int) float64 {
	if bytes <= 0 || entries <= 0 {
		return m.BaseFO4
	}
	return m.BaseFO4 +
		m.DecodeFO4PerBit*math.Log2(float64(entries)) +
		m.WireFO4PerSqrtByte*math.Sqrt(float64(bytes))
}

// CyclesFor converts an FO4 delay into whole clock cycles (minimum 1).
func (m Model) CyclesFor(fo4 float64) int {
	c := int(math.Ceil(fo4 / m.ClockFO4))
	if c < 1 {
		c = 1
	}
	return c
}

// TableCycles returns the access latency in cycles of a single SRAM table.
func (m Model) TableCycles(bytes, entries int) int {
	return m.CyclesFor(m.AccessFO4(bytes, entries))
}

// PredictorKind distinguishes the structural delay recipes of §4.1.5.
type PredictorKind int

// Recipes for each predictor organization the paper simulates.
const (
	// KindSingleTable: one PHT read plus negligible output logic
	// (bimodal, gshare, gselect, and the row-read stage of gshare.fast).
	KindSingleTable PredictorKind = iota
	// KindBanked: parallel equal banks plus one fan-in-four mux FO4 for
	// the majority/choice network (2Bc-gskew; also bi-mode). The paper
	// optimistically charges complex predictors a single FO4 of
	// computation (§4.1.5).
	KindBanked
	// KindMultiTable: parallel unequal tables plus one FO4 of selection
	// (multi-component hybrid, EV6 tournament).
	KindMultiTable
	// KindPerceptron: table read plus a full extra cycle for the dot
	// product adder tree — the paper's optimistic estimate for logic the
	// authors themselves place at two or more cycles (§4.1.5).
	KindPerceptron
)

// Spec describes a predictor to the delay model: its kind and the bytes
// and entry count of its largest table component.
type Spec struct {
	Kind          PredictorKind
	LargestBytes  int
	LargestEntrys int
}

const computeMuxFO4 = 1.0

// Cycles returns the predictor's access latency in cycles under the paper's
// optimistic assumptions.
func (m Model) Cycles(s Spec) int {
	fo4 := m.AccessFO4(s.LargestBytes, s.LargestEntrys)
	switch s.Kind {
	case KindSingleTable:
		return m.CyclesFor(fo4)
	case KindBanked, KindMultiTable:
		return m.CyclesFor(fo4 + computeMuxFO4)
	case KindPerceptron:
		return m.CyclesFor(fo4) + 1
	default:
		panic(fmt.Sprintf("delaymodel: unknown predictor kind %d", s.Kind))
	}
}

// SingleCycleEntries returns the largest power-of-two PHT entry count
// readable in a single cycle — the paper's headline constraint that future
// single-cycle pattern history tables top out at 1K entries (§2.5).
func (m Model) SingleCycleEntries() int {
	entries := 1
	for {
		next := entries * 2
		bytes := next * 2 / 8
		if m.TableCycles(bytes, next) > 1 {
			return entries
		}
		entries = next
	}
}
