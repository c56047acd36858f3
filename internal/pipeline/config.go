// Package pipeline is the cycle-level timing model of the paper's simulated
// machine: an 8-wide, 20-deep out-of-order core in the SimpleScalar mould
// (Table 1), driven by the synthetic instruction traces. It charges fetch
// for instruction-cache misses, BTB misses, branch predictor organization
// penalties (override bubbles for complex predictors; nothing for
// gshare.fast) and misprediction redirects, and it models issue bandwidth,
// functional-unit contention, register dependencies, ROB occupancy, and the
// data-cache hierarchy. The output is instructions per cycle, the paper's
// performance metric (Figures 2, 7 and 8).
package pipeline

import (
	"branchsim/internal/cache"
)

// Config parameterizes the simulated core. DefaultConfig reproduces Table 1.
//
// Config's canonical form is the timing cells' key component, so every
// field must flow into Canonical — TestCanonicalKeyCoverage
// (internal/experiments) changes each field and requires the rendered key
// to change, keeping two genuinely different machines from colliding on
// one cached Result.
type Config struct {
	// FetchWidth is the instructions fetched per cycle (fetch stops at a
	// taken branch and at I-cache block boundaries).
	FetchWidth int
	// IssueWidth is the maximum instructions issued per cycle (Table 1:
	// issue width 8).
	IssueWidth int
	// CommitWidth is the maximum instructions retired per cycle.
	CommitWidth int
	// ROBSize bounds the instructions in flight.
	ROBSize int
	// PipelineDepth is the total pipeline depth (Table 1: 20).
	PipelineDepth int
	// FrontEndDepth is the fetch-to-dispatch distance in cycles; a
	// misprediction redirect refills this much pipe before new
	// instructions reach the window. Zero derives PipelineDepth/2.
	FrontEndDepth int

	// Functional-unit issue ports per cycle.
	IntPorts int // single-cycle integer ops and branches
	MemPorts int // loads and stores
	MulPorts int // integer multiply
	FPPorts  int // floating point

	// Execution latencies in cycles (pipelined units).
	MulLatency int
	FPLatency  int

	// Memory hierarchy (Table 1).
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// L1DLatency is the load-use latency on an L1 hit; L2Latency and
	// MemLatency apply on L1 and L2 misses respectively.
	L1DLatency int
	L2Latency  int
	MemLatency int

	// BTB geometry (Table 1: 512-entry, 2-way) and the decode-redirect
	// bubble paid when a taken branch misses in it.
	BTBEntries     int
	BTBWays        int
	BTBMissPenalty int
}

// DefaultConfig returns the paper's Table 1 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    8,
		IssueWidth:    8,
		CommitWidth:   8,
		ROBSize:       128,
		PipelineDepth: 20,

		IntPorts: 6,
		MemPorts: 4,
		MulPorts: 2,
		FPPorts:  2,

		MulLatency: 7,
		FPLatency:  4,

		L1I: cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 1},
		L1D: cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 1},
		L2:  cache.Config{SizeBytes: 2 << 20, LineBytes: 128, Ways: 4},

		L1DLatency: 3,
		L2Latency:  12,
		MemLatency: 200,

		BTBEntries:     512,
		BTBWays:        2,
		BTBMissPenalty: 2,
	}
}

// frontEndDepth resolves the derived default.
func (c Config) frontEndDepth() int {
	if c.FrontEndDepth > 0 {
		return c.FrontEndDepth
	}
	return c.PipelineDepth / 2
}

// Canonical returns the config with derived defaults resolved, so two
// configs describing the same machine compare equal. Config is comparable;
// the canonical form is the timing cells' config key component.
//
// The result is built as an explicit field-by-field literal rather than a
// mutated copy of the receiver, so a field added to Config is absent from
// the key until it is named here; TestCanonicalKeyCoverage fails until
// then.
func (c Config) Canonical() Config {
	return Config{
		FetchWidth:    c.FetchWidth,
		IssueWidth:    c.IssueWidth,
		CommitWidth:   c.CommitWidth,
		ROBSize:       c.ROBSize,
		PipelineDepth: c.PipelineDepth,
		FrontEndDepth: c.frontEndDepth(),

		IntPorts: c.IntPorts,
		MemPorts: c.MemPorts,
		MulPorts: c.MulPorts,
		FPPorts:  c.FPPorts,

		MulLatency: c.MulLatency,
		FPLatency:  c.FPLatency,

		L1I: c.L1I,
		L1D: c.L1D,
		L2:  c.L2,

		L1DLatency: c.L1DLatency,
		L2Latency:  c.L2Latency,
		MemLatency: c.MemLatency,

		BTBEntries:     c.BTBEntries,
		BTBWays:        c.BTBWays,
		BTBMissPenalty: c.BTBMissPenalty,
	}
}
