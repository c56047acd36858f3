// Package workload synthesizes the 12 SPECint2000-like benchmark programs
// the experiments run. The paper evaluates on SPECint2000 under
// SimpleScalar/Alpha; real SPEC traces are not available here, so each
// benchmark is modelled as a synthetic program whose *branch-behaviour mix*,
// code footprint, memory locality and instruction-level parallelism are
// calibrated to reproduce the relative behaviour the paper's conclusions
// rest on (see DESIGN.md §2):
//
//   - aliasing pressure (static branch count vs. table size) drives the
//     budget curves of Figures 1 and 5;
//   - short- and long-range global correlation separates history-rich
//     predictors (perceptron, multi-component) from PHT-indexed ones;
//   - XOR-type correlation is learnable by tables but not by perceptrons;
//   - per-branch loops and local patterns reward local-history components;
//   - irreducibly random branches set each benchmark's accuracy floor
//     (twolf's simulated-annealing accepts, vpr's random moves);
//   - working sets and dependency density set the IPC ceiling per benchmark
//     (mcf's pointer chasing vs. eon's regular arithmetic).
package workload

// BranchClass is a generative model for one static branch's outcomes.
type BranchClass uint8

// Branch behaviour classes.
const (
	// ClassLoop branches are backward loop branches: taken period-1
	// times, then not taken once.
	ClassLoop BranchClass = iota
	// ClassBiased branches are independent coin flips with a strong,
	// per-branch bias.
	ClassBiased
	// ClassShortCorr branches copy (or invert) the outcome of a branch a
	// short distance back in the global stream — classic two-level
	// correlation within gshare's reach.
	ClassShortCorr
	// ClassLongCorr branches correlate 20-56 branches back: beyond the
	// history of PHT-indexed predictors at small budgets, within reach of
	// the perceptron and the multi-component hybrid's long components.
	ClassLongCorr
	// ClassLocalPattern branches repeat a fixed per-branch pattern,
	// rewarding local-history predictors.
	ClassLocalPattern
	// ClassXorCorr branches XOR two global history bits — learnable by
	// pattern tables, *not* linearly separable for perceptrons.
	ClassXorCorr
	// ClassRandom branches are fair coin flips: the irreducible noise
	// floor.
	ClassRandom
	numClasses
)

// NumClasses is the number of branch behaviour classes.
const NumClasses = int(numClasses)

// String returns the class mnemonic.
func (c BranchClass) String() string {
	switch c {
	case ClassLoop:
		return "loop"
	case ClassBiased:
		return "biased"
	case ClassShortCorr:
		return "short-corr"
	case ClassLongCorr:
		return "long-corr"
	case ClassLocalPattern:
		return "local-pattern"
	case ClassXorCorr:
		return "xor-corr"
	case ClassRandom:
		return "random"
	default:
		return "?"
	}
}

// ClassMix is a weight per BranchClass; weights need not sum to one (they
// are normalized at sampling time).
type ClassMix [NumClasses]float64

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	// Name is the benchmark's SPEC-style name, e.g. "164.gzip".
	Name string
	// Seed fixes the program's construction and data randomness.
	Seed uint64

	// Blocks is the number of static basic blocks; one conditional
	// branch or jump terminates each, so this sets the static branch
	// count and, with BlockLen, the code footprint.
	Blocks int
	// BlockLenMin and BlockLenMax bound the non-branch instructions per
	// block (uniform).
	BlockLenMin, BlockLenMax int
	// CondFrac is the fraction of blocks ending in a conditional branch
	// rather than an unconditional jump.
	CondFrac float64

	// Mix weights the branch behaviour classes.
	Mix ClassMix
	// Noise is the probability a correlated/patterned branch's outcome is
	// flipped — each benchmark's model error.
	Noise float64
	// BiasLo and BiasHi bound per-branch taken probabilities for
	// ClassBiased (one side; the generator mirrors half of them below
	// 50%).
	BiasLo, BiasHi float64
	// LoopMin and LoopMax bound loop periods.
	LoopMin, LoopMax int
	// LocalMin and LocalMax bound local pattern lengths.
	LocalMin, LocalMax int
	// ShortOffMin and ShortOffMax bound ClassShortCorr correlation
	// distances (in branches).
	ShortOffMin, ShortOffMax int
	// LongOffMin and LongOffMax bound ClassLongCorr correlation
	// distances.
	LongOffMin, LongOffMax int

	// LoadFrac and StoreFrac are per-body-slot probabilities of memory
	// operations; MulFrac and FPUFrac of long-latency arithmetic.
	LoadFrac, StoreFrac, MulFrac, FPUFrac float64
	// DepNear is the probability a source register names a recently
	// produced value (short dependency chains lower ILP).
	DepNear float64
	// WorkingSet is the data working set in bytes; RandomFrac of memory
	// references scatter across it uniformly, StreamFrac walk it with
	// fixed strides, and the rest hit a small hot stack region.
	WorkingSet uint64
	// StreamFrac and RandomFrac partition memory references (remainder
	// goes to the stack region).
	StreamFrac, RandomFrac float64
}

// DefaultInstructions is the per-benchmark dynamic instruction count
// cmd/bpsim and cmd/ipcsim run when -insts is not given (cmd/reproduce
// uses experiments.DefaultInsts instead). The paper runs >1B
// instructions per benchmark after a 500M warm-up; the synthetic programs
// reach steady state orders of magnitude sooner because they have no
// initialization phase, so the default keeps full-suite sweeps tractable.
const DefaultInstructions = 2_000_000

// Profiles returns the twelve benchmark profiles in SPEC numeric order.
// The mixes and intensities are the calibration described in the package
// comment; EXPERIMENTS.md records the resulting per-benchmark rates.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "164.gzip", Seed: 0x164,
			Blocks: 1400, BlockLenMin: 3, BlockLenMax: 9, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .08, ClassBiased: 0.51, ClassShortCorr: 0.235, ClassLongCorr: 0.015, ClassLocalPattern: 0.07, ClassXorCorr: .05, ClassRandom: 0.04},
			Noise: 0.020, BiasLo: 0.93, BiasHi: 0.995,
			LoopMin: 3, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 36,
			LoadFrac: 0.26, StoreFrac: 0.12, MulFrac: 0.02, FPUFrac: 0.00,
			DepNear: 0.55, WorkingSet: 768 << 10, StreamFrac: 0.60, RandomFrac: 0.15,
		},
		{
			Name: "175.vpr", Seed: 0x175,
			Blocks: 2600, BlockLenMin: 3, BlockLenMax: 8, CondFrac: 0.78,
			Mix:   ClassMix{ClassLoop: .06, ClassBiased: 0.49, ClassShortCorr: 0.225, ClassLongCorr: 0.025, ClassLocalPattern: 0.07, ClassXorCorr: .05, ClassRandom: 0.08},
			Noise: 0.025, BiasLo: 0.90, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 22, LongOffMax: 40,
			LoadFrac: 0.27, StoreFrac: 0.10, MulFrac: 0.03, FPUFrac: 0.05,
			DepNear: 0.60, WorkingSet: 1536 << 10, StreamFrac: 0.35, RandomFrac: 0.25,
		},
		{
			Name: "176.gcc", Seed: 0x176,
			Blocks: 9000, BlockLenMin: 3, BlockLenMax: 8, CondFrac: 0.82,
			Mix:   ClassMix{ClassLoop: .08, ClassBiased: 0.52, ClassShortCorr: 0.275, ClassLongCorr: 0.025, ClassLocalPattern: 0.02, ClassXorCorr: .05, ClassRandom: 0.03},
			Noise: 0.020, BiasLo: 0.93, BiasHi: 0.995,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 44,
			LoadFrac: 0.28, StoreFrac: 0.14, MulFrac: 0.01, FPUFrac: 0.00,
			DepNear: 0.58, WorkingSet: 2 << 20, StreamFrac: 0.40, RandomFrac: 0.20,
		},
		{
			Name: "181.mcf", Seed: 0x181,
			Blocks: 1600, BlockLenMin: 3, BlockLenMax: 7, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .08, ClassBiased: 0.61, ClassShortCorr: 0.135, ClassLongCorr: 0.015, ClassLocalPattern: 0.02, ClassXorCorr: .05, ClassRandom: 0.09},
			Noise: 0.025, BiasLo: 0.90, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 32,
			LoadFrac: 0.30, StoreFrac: 0.10, MulFrac: 0.01, FPUFrac: 0.00,
			DepNear: 0.60, WorkingSet: 8 << 20, StreamFrac: 0.15, RandomFrac: 0.40,
		},
		{
			Name: "186.crafty", Seed: 0x186,
			Blocks: 5200, BlockLenMin: 4, BlockLenMax: 10, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .06, ClassBiased: 0.42, ClassShortCorr: 0.225, ClassLongCorr: 0.025, ClassLocalPattern: 0.02, ClassXorCorr: .20, ClassRandom: 0.05},
			Noise: 0.020, BiasLo: 0.92, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 40,
			LoadFrac: 0.24, StoreFrac: 0.08, MulFrac: 0.04, FPUFrac: 0.00,
			DepNear: 0.48, WorkingSet: 1 << 20, StreamFrac: 0.45, RandomFrac: 0.20,
		},
		{
			Name: "197.parser", Seed: 0x197,
			Blocks: 4000, BlockLenMin: 3, BlockLenMax: 8, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .06, ClassBiased: 0.42, ClassShortCorr: 0.36, ClassLongCorr: 0.04, ClassLocalPattern: 0.02, ClassXorCorr: .05, ClassRandom: 0.05},
			Noise: 0.020, BiasLo: 0.92, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 22, LongOffMax: 44,
			LoadFrac: 0.27, StoreFrac: 0.11, MulFrac: 0.01, FPUFrac: 0.00,
			DepNear: 0.62, WorkingSet: 1536 << 10, StreamFrac: 0.35, RandomFrac: 0.25,
		},
		{
			Name: "252.eon", Seed: 0x252,
			Blocks: 3000, BlockLenMin: 5, BlockLenMax: 14, CondFrac: 0.70,
			Mix:   ClassMix{ClassLoop: .10, ClassBiased: 0.645, ClassShortCorr: 0.185, ClassLongCorr: 0.015, ClassLocalPattern: 0.02, ClassXorCorr: .02, ClassRandom: 0.015},
			Noise: 0.015, BiasLo: 0.96, BiasHi: 0.999,
			LoopMin: 3, LoopMax: 8, LocalMin: 3, LocalMax: 6,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 30,
			LoadFrac: 0.22, StoreFrac: 0.10, MulFrac: 0.03, FPUFrac: 0.18,
			DepNear: 0.40, WorkingSet: 512 << 10, StreamFrac: 0.60, RandomFrac: 0.10,
		},
		{
			Name: "253.perlbmk", Seed: 0x253,
			Blocks: 6500, BlockLenMin: 3, BlockLenMax: 8, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .06, ClassBiased: 0.455, ClassShortCorr: 0.36, ClassLongCorr: 0.04, ClassLocalPattern: 0.02, ClassXorCorr: .03, ClassRandom: 0.035},
			Noise: 0.018, BiasLo: 0.94, BiasHi: 0.995,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 24, LongOffMax: 48,
			LoadFrac: 0.28, StoreFrac: 0.14, MulFrac: 0.01, FPUFrac: 0.00,
			DepNear: 0.55, WorkingSet: 1 << 20, StreamFrac: 0.40, RandomFrac: 0.20,
		},
		{
			Name: "254.gap", Seed: 0x254,
			Blocks: 3200, BlockLenMin: 4, BlockLenMax: 10, CondFrac: 0.75,
			Mix:   ClassMix{ClassLoop: .12, ClassBiased: 0.62, ClassShortCorr: 0.185, ClassLongCorr: 0.015, ClassLocalPattern: 0.02, ClassXorCorr: .02, ClassRandom: 0.02},
			Noise: 0.015, BiasLo: 0.95, BiasHi: 0.998,
			LoopMin: 3, LoopMax: 8, LocalMin: 3, LocalMax: 6,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 32,
			LoadFrac: 0.25, StoreFrac: 0.11, MulFrac: 0.04, FPUFrac: 0.00,
			DepNear: 0.45, WorkingSet: 1 << 20, StreamFrac: 0.55, RandomFrac: 0.12,
		},
		{
			Name: "255.vortex", Seed: 0x255,
			Blocks: 5000, BlockLenMin: 4, BlockLenMax: 9, CondFrac: 0.78,
			Mix:   ClassMix{ClassLoop: .08, ClassBiased: 0.7, ClassShortCorr: 0.17, ClassLongCorr: 0.01, ClassLocalPattern: 0.02, ClassXorCorr: .01, ClassRandom: 0.01},
			Noise: 0.012, BiasLo: 0.97, BiasHi: 0.999,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 6,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 28,
			LoadFrac: 0.27, StoreFrac: 0.16, MulFrac: 0.01, FPUFrac: 0.00,
			DepNear: 0.50, WorkingSet: 1536 << 10, StreamFrac: 0.50, RandomFrac: 0.18,
		},
		{
			Name: "256.bzip2", Seed: 0x256,
			Blocks: 1200, BlockLenMin: 3, BlockLenMax: 9, CondFrac: 0.82,
			Mix:   ClassMix{ClassLoop: .08, ClassBiased: 0.5, ClassShortCorr: 0.235, ClassLongCorr: 0.015, ClassLocalPattern: 0.07, ClassXorCorr: .05, ClassRandom: 0.05},
			Noise: 0.020, BiasLo: 0.92, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 34,
			LoadFrac: 0.27, StoreFrac: 0.12, MulFrac: 0.02, FPUFrac: 0.00,
			DepNear: 0.55, WorkingSet: 2 << 20, StreamFrac: 0.65, RandomFrac: 0.12,
		},
		{
			Name: "300.twolf", Seed: 0x300,
			Blocks: 3000, BlockLenMin: 3, BlockLenMax: 8, CondFrac: 0.80,
			Mix:   ClassMix{ClassLoop: .05, ClassBiased: 0.45, ClassShortCorr: 0.18, ClassLongCorr: 0.02, ClassLocalPattern: 0.05, ClassXorCorr: .12, ClassRandom: 0.13},
			Noise: 0.028, BiasLo: 0.88, BiasHi: 0.990,
			LoopMin: 2, LoopMax: 8, LocalMin: 3, LocalMax: 7,
			ShortOffMin: 2, ShortOffMax: 11, LongOffMin: 20, LongOffMax: 36,
			LoadFrac: 0.26, StoreFrac: 0.10, MulFrac: 0.03, FPUFrac: 0.04,
			DepNear: 0.62, WorkingSet: 1 << 20, StreamFrac: 0.30, RandomFrac: 0.30,
		},
	}
}

// ByName returns the profile with the given name (with or without the SPEC
// number prefix) and whether it exists.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name || p.ShortName() == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ShortName returns the name without the SPEC number prefix ("gzip").
func (p Profile) ShortName() string {
	for i := 0; i < len(p.Name); i++ {
		if p.Name[i] == '.' {
			return p.Name[i+1:]
		}
	}
	return p.Name
}
