package workload

import (
	"math"

	"branchsim/internal/rng"
	"branchsim/internal/trace"
)

// memMode classifies how a memory slot generates addresses.
type memMode uint8

const (
	memStack memMode = iota
	memStream
	memRandom
)

// slotTemplate is one non-branch instruction slot in a static basic block.
type slotTemplate struct {
	kind     trace.Kind
	mem      memMode
	stride   uint64
	streamID int32 // index into per-program stream offsets, -1 if none
}

// branchDesc is the generative model of one static conditional branch.
type branchDesc struct {
	class       BranchClass
	bias        float64
	invert      bool
	period      int
	pattern     uint64
	off1, off2  uint
	takenTarget int32
}

// block is one static basic block.
type block struct {
	startPC    uint64
	brPC       uint64
	slots      []slotTemplate
	cond       bool
	br         branchDesc
	jumpTarget int32
}

// Base addresses of the synthetic address space.
const (
	codeBase  = 0x0001_0000
	heapBase  = 0x2000_0000
	stackBase = 0x7F00_0000
	stackSize = 4096

	// hotRegion is the size of the hot subset that captures half of all
	// pointer-chasing references (see address).
	hotRegion = 32 << 10
)

// Program is a synthetic benchmark program implementing trace.Generator
// and both batch protocols, trace.InstSource and trace.BranchSource. The
// stream is infinite (steady-state by construction); drivers bound it with
// an instruction budget. Two Programs built from the same Profile
// produce identical streams.
type Program struct {
	prof   Profile
	blocks []block
	rng    *rng.Xoshiro256

	cur  int32
	slot int

	ghist     uint64 // global outcome history, bit 0 = most recent
	loopCount []int32
	patPos    []int32
	rareRun   []bool   // ClassBiased Markov state: currently in a rare run
	streams   []uint64 // per stream: offset of its next address in the working set

	destRing [destRingLen]int8
	destLen  int
	destHead int
	regNext  int // next destination is register 4+regNext, in [0, 28)

	// depNearCut is ceil(DepNear·2⁵³), the integer form of
	// Bool(DepNear) that pickSrc's steady state compares a word against;
	// 0 when DepNear is outside (0, 1), where Bool draws no word.
	depNearCut uint64

	insts    int64
	branches int64
	taken    int64

	// Phase scheduler: the walk carries an instruction budget; when it
	// runs out, the next unconditional jump (or, failing that for twice
	// the budget, the next taken non-loop branch) is redirected to the
	// start of the next code region, like a main loop dispatching the
	// next phase of work.
	phaseBudget  int64
	regionStarts []int32
	regionIdx    int

	classByPC map[uint64]BranchClass // lazy diagnostic index
	filter    *trace.BranchFilter    // lazy branch protocol (NextBranches)
}

// destRingLen is the number of recent destination registers pickSrc
// samples dependencies from. A power of two, so the ring index is a mask.
const destRingLen = 8

// phaseLen is the per-phase instruction budget of the phase scheduler.
const phaseLen = 16384

// regionBlocks is the target region granularity of the phase scheduler.
const regionBlocks = 64

// New builds the synthetic program for a profile. Construction is
// deterministic in prof.Seed.
func New(prof Profile) *Program {
	if prof.Blocks < 2 {
		panic("workload: profile needs at least two blocks")
	}
	p := &Program{
		prof:        prof,
		rng:         rng.NewXoshiro256(prof.Seed*0x9e3779b97f4a7c15 + 0x1234_5678),
		blocks:      make([]block, prof.Blocks),
		loopCount:   make([]int32, prof.Blocks),
		patPos:      make([]int32, prof.Blocks),
		rareRun:     make([]bool, prof.Blocks),
		phaseBudget: phaseLen,
	}
	if prof.DepNear > 0 && prof.DepNear < 1 {
		p.depNearCut = uint64(math.Ceil(prof.DepNear * (1 << 53)))
	}
	for start := 0; start < prof.Blocks; start += regionBlocks {
		p.regionStarts = append(p.regionStarts, int32(start))
	}
	// First pass: block shapes, instruction templates and branch
	// behaviour. Targets are assigned in a second pass so jumps can be
	// steered toward conditional blocks (see pickCondTarget).
	pc := uint64(codeBase)
	for i := range p.blocks {
		b := &p.blocks[i]
		b.startPC = pc
		n := prof.BlockLenMin
		if prof.BlockLenMax > prof.BlockLenMin {
			n += p.rng.Intn(prof.BlockLenMax - prof.BlockLenMin + 1)
		}
		b.slots = make([]slotTemplate, n)
		for s := range b.slots {
			b.slots[s] = p.makeSlot()
		}
		b.brPC = pc + uint64(n)*4
		pc = b.brPC + 4
		if p.rng.Bool(prof.CondFrac) {
			b.cond = true
			b.br = p.makeBranch(int32(i))
		}
	}
	for i := range p.blocks {
		b := &p.blocks[i]
		if b.cond {
			if b.br.class != ClassLoop {
				b.br.takenTarget = p.pickTarget(int32(i))
			}
		} else {
			// Unconditional jumps always land on a conditional
			// block; otherwise a cycle of jump-only blocks would
			// absorb the walk forever, which no terminating
			// program does.
			b.jumpTarget = p.pickCondTarget(int32(i))
		}
	}
	return p
}

// escapable reports whether a block ends in a conditional branch whose
// outcome has entropy (bias, correlation noise or randomness). A cycle of
// blocks that contains an escapable branch cannot absorb the walk forever.
func (p *Program) escapable(i int32) bool {
	b := &p.blocks[i]
	if !b.cond {
		return false
	}
	switch b.br.class {
	case ClassLoop, ClassLocalPattern:
		// Loops terminate but re-enter deterministically; local
		// patterns can be all-taken. Neither guarantees escape.
		return false
	default:
		return true
	}
}

// pickCondTarget chooses a jump target among escapable conditional blocks.
// Every static cycle in the CFG must contain a backward edge, and every
// backward edge is either a terminating loop back-edge, a stochastic
// conditional, or a jump — so forcing jumps onto escapable blocks makes
// absorbing cycles impossible.
func (p *Program) pickCondTarget(self int32) int32 {
	for tries := 0; tries < 64; tries++ {
		t := p.pickTarget(self)
		if p.escapable(t) {
			return t
		}
	}
	// Degenerate profile (few stochastic branches): fall back to a
	// linear scan so construction still terminates.
	n := int32(len(p.blocks))
	for d := int32(1); d < n; d++ {
		if t := (self + d) % n; p.escapable(t) {
			return t
		}
	}
	return (self + 1) % n
}

// makeSlot samples one body instruction template.
func (p *Program) makeSlot() slotTemplate {
	prof := &p.prof
	r := p.rng.Float64()
	t := slotTemplate{kind: trace.ALU, streamID: -1}
	switch {
	case r < prof.LoadFrac:
		t.kind = trace.Load
	case r < prof.LoadFrac+prof.StoreFrac:
		t.kind = trace.Store
	case r < prof.LoadFrac+prof.StoreFrac+prof.MulFrac:
		t.kind = trace.Mul
	case r < prof.LoadFrac+prof.StoreFrac+prof.MulFrac+prof.FPUFrac:
		t.kind = trace.FPU
	}
	if t.kind == trace.Load || t.kind == trace.Store {
		m := p.rng.Float64()
		switch {
		case m < prof.RandomFrac:
			t.mem = memRandom
		case m < prof.RandomFrac+prof.StreamFrac:
			t.mem = memStream
			strides := [...]uint64{4, 4, 8, 8, 16}
			t.stride = strides[p.rng.Intn(len(strides))]
			t.streamID = int32(len(p.streams))
			p.streams = append(p.streams, p.rng.Uint64n(prof.WorkingSet)&^7)
		default:
			t.mem = memStack
		}
	}
	return t
}

// makeBranch samples one static conditional branch's behaviour and target.
func (p *Program) makeBranch(self int32) branchDesc {
	prof := &p.prof
	d := branchDesc{class: p.sampleClass()}
	switch d.class {
	case ClassLoop:
		d.period = prof.LoopMin + p.rng.Intn(prof.LoopMax-prof.LoopMin+1)
		d.takenTarget = self // back edge re-executes the loop body
	case ClassBiased:
		// Skew toward the strong end: real biased branches are nearly
		// always-taken guards and error checks, so sample 1-bias
		// quadratically small.
		u := p.rng.Float64()
		d.bias = prof.BiasHi - (prof.BiasHi-prof.BiasLo)*u*u
		if p.rng.Bool(0.5) {
			d.bias = 1 - d.bias
		}
	case ClassShortCorr:
		d.off1 = uint(prof.ShortOffMin + p.rng.Intn(prof.ShortOffMax-prof.ShortOffMin+1))
		d.invert = p.rng.Bool(0.5)
	case ClassLongCorr:
		d.off1 = uint(prof.LongOffMin + p.rng.Intn(prof.LongOffMax-prof.LongOffMin+1))
		d.invert = p.rng.Bool(0.5)
	case ClassLocalPattern:
		d.period = prof.LocalMin + p.rng.Intn(prof.LocalMax-prof.LocalMin+1)
		d.pattern = p.rng.Next() & (1<<uint(d.period) - 1)
	case ClassXorCorr:
		d.off1 = uint(prof.ShortOffMin + p.rng.Intn(prof.ShortOffMax-prof.ShortOffMin+1))
		d.off2 = d.off1 + 1 + uint(p.rng.Intn(8))
		d.invert = p.rng.Bool(0.5)
	case ClassRandom:
		d.bias = 0.5
	}
	return d
}

// sampleClass draws a branch class from the profile mix.
func (p *Program) sampleClass() BranchClass {
	var total float64
	for _, w := range p.prof.Mix {
		total += w
	}
	if total <= 0 {
		return ClassBiased
	}
	r := p.rng.Float64() * total
	for c, w := range p.prof.Mix {
		if r < w {
			return BranchClass(c)
		}
		r -= w
	}
	return ClassRandom
}

// pickTarget chooses a control-flow target block near the branch, the way
// compiled control flow stays within a function. Global movement between
// code regions happens through the phase scheduler (see Next), which models
// a program's outer loop sweeping its phases — without it, the fixed random
// CFG's stationary distribution collapses onto a small attractor and most
// static branches never execute.
func (p *Program) pickTarget(self int32) int32 {
	n := int32(len(p.blocks))
	d := int32(p.rng.Intn(49)) - 24
	t := self + d
	// Wrap into range.
	return (t%n + n) % n
}

// Name implements trace.Generator.
func (p *Program) Name() string { return p.prof.Name }

// Profile returns the generating profile.
func (p *Program) Profile() Profile { return p.prof }

// StaticBranches returns the number of static conditional branches.
func (p *Program) StaticBranches() int {
	n := 0
	for i := range p.blocks {
		if p.blocks[i].cond {
			n++
		}
	}
	return n
}

// CodeFootprint returns the static code size in bytes.
func (p *Program) CodeFootprint() uint64 {
	last := &p.blocks[len(p.blocks)-1]
	return last.brPC + 4 - codeBase
}

// Stats returns the dynamic instruction, conditional branch and taken
// counts emitted so far.
func (p *Program) Stats() (insts, branches, taken int64) {
	return p.insts, p.branches, p.taken
}

// pickSrc samples a source register: usually a recently produced value
// (short dependency distance), otherwise any architectural register.
//
// The coin is close to fair, so branching on it mispredicts on the host
// about half the time. In the steady state (at least four recent
// destinations, 0 < DepNear < 1) both arms draw exactly one more word —
// Intn(4) and Intn(NumRegs) are powers of two, so each is one Next masked —
// and pickSrc draws both words up front and selects with a mask instead.
// The coin is Float64() < DepNear, which for the 53-bit k = Next()>>11 is
// k/2⁵³ < DepNear, i.e. k < ceil(DepNear·2⁵³) = depNearCut: the selected
// register and the words consumed are exactly the branching form's.
func (p *Program) pickSrc() int8 {
	if p.destLen >= 4 && p.depNearCut != 0 {
		near := p.rng.Next()>>11 < p.depNearCut
		w := p.rng.Next()
		recent := p.destRing[(p.destHead-1-int(w&3))&(destRingLen-1)]
		anyReg := int8(w & (trace.NumRegs - 1))
		mask := -int8(b2u(near))
		return anyReg ^ (anyReg^recent)&mask
	}
	if p.destLen > 0 && p.rng.Bool(p.prof.DepNear) {
		back := 1 + p.rng.Intn(min(4, p.destLen))
		idx := (p.destHead - back + destRingLen) % destRingLen
		return p.destRing[idx]
	}
	return int8(p.rng.Intn(trace.NumRegs))
}

// nextDst allocates a destination register round-robin over the
// non-reserved registers and records it for dependency sampling.
func (p *Program) nextDst() int8 {
	d := int8(4 + p.regNext)
	if p.regNext++; p.regNext == 28 {
		p.regNext = 0
	}
	p.destRing[p.destHead] = d
	p.destHead = (p.destHead + 1) & (destRingLen - 1)
	if p.destLen < destRingLen {
		p.destLen++
	}
	return d
}

// address produces the effective address for a memory slot.
func (p *Program) address(t *slotTemplate) uint64 {
	switch t.mem {
	case memStream:
		// The n-th access is at (base + n·stride) mod WorkingSet, kept
		// as a running offset so only a wrap divides.
		off := p.streams[t.streamID]
		next := off + t.stride
		if next >= p.prof.WorkingSet {
			next %= p.prof.WorkingSet
		}
		p.streams[t.streamID] = next
		return heapBase + off
	case memRandom:
		// Pointer-chasing references have an 80/20 shape in real
		// programs: half the "random" references land in a small hot
		// region (the frequently touched nodes), the rest scatter
		// over the full working set.
		if p.rng.Bool(0.5) {
			return heapBase + (p.rng.Uint64n(hotRegion) &^ 7)
		}
		return heapBase + (p.rng.Uint64n(p.prof.WorkingSet) &^ 7)
	default:
		return stackBase + (p.rng.Uint64n(stackSize) &^ 7)
	}
}

// outcome evaluates a conditional branch's generative model and advances its
// state.
func (p *Program) outcome(blockIdx int32, d *branchDesc) bool {
	var taken bool
	noisy := false
	switch d.class {
	case ClassLoop:
		c := p.loopCount[blockIdx] + 1
		if int(c) >= d.period {
			taken = false
			c = 0
		} else {
			taken = true
		}
		p.loopCount[blockIdx] = c
	case ClassBiased:
		// Two-state Markov model: the branch emits its majority
		// direction until it enters a short "rare run" of the minority
		// direction, as data-dependent branches do in real programs
		// (mispredictable events cluster). The stationary minority
		// fraction equals 1-bias, matching a plain biased coin, but
		// the clustering keeps global-history contexts recurrent
		// instead of fragmenting every window with isolated flips.
		q := 1 - d.bias
		majority := true
		if d.bias < 0.5 {
			majority = false
			q = d.bias
		}
		const stayRare = 0.5
		if p.rareRun[blockIdx] {
			if p.rng.Bool(stayRare) {
				taken = !majority
			} else {
				p.rareRun[blockIdx] = false
				taken = majority
			}
		} else {
			enterRare := stayRare * q / (1 - q)
			if p.rng.Bool(enterRare) {
				p.rareRun[blockIdx] = true
				taken = !majority
			} else {
				taken = majority
			}
		}
	case ClassRandom:
		taken = p.rng.Bool(d.bias)
	case ClassShortCorr, ClassLongCorr:
		taken = p.ghist>>(d.off1-1)&1 == 1
		noisy = true
	case ClassLocalPattern:
		pos := p.patPos[blockIdx]
		taken = d.pattern>>uint(pos)&1 == 1
		p.patPos[blockIdx] = (pos + 1) % int32(d.period)
		noisy = true
	case ClassXorCorr:
		taken = (p.ghist>>(d.off1-1)&1)^(p.ghist>>(d.off2-1)&1) == 1
		noisy = true
	}
	if d.invert {
		taken = !taken
	}
	if noisy && p.rng.Bool(p.prof.Noise) {
		taken = !taken
	}
	return taken
}

// Next implements trace.Generator. The stream never ends.
func (p *Program) Next(inst *trace.Inst) bool {
	b := &p.blocks[p.cur]
	if p.slot < len(b.slots) {
		t := &b.slots[p.slot]
		inst.PC = b.startPC + uint64(p.slot)*4
		inst.Kind = t.kind
		inst.Taken = false
		inst.Target = 0
		inst.Addr = 0
		switch t.kind {
		case trace.Load:
			inst.Addr = p.address(t)
			inst.Src1 = p.pickSrc()
			inst.Src2 = trace.NoReg
			inst.Dst = p.nextDst()
		case trace.Store:
			inst.Addr = p.address(t)
			inst.Src1 = p.pickSrc()
			inst.Src2 = p.pickSrc()
			inst.Dst = trace.NoReg
		default:
			inst.Src1 = p.pickSrc()
			inst.Src2 = p.pickSrc()
			inst.Dst = p.nextDst()
		}
		p.slot++
		p.insts++
		p.phaseBudget--
		return true
	}

	// Block terminator.
	inst.PC = b.brPC
	inst.Addr = 0
	inst.Dst = trace.NoReg
	if b.cond {
		taken := p.outcome(p.cur, &b.br)
		inst.Kind = trace.CondBranch
		inst.Src1 = p.pickSrc()
		inst.Src2 = p.pickSrc()
		inst.Taken = taken
		target := b.br.takenTarget
		if taken && b.br.class != ClassLoop && p.phaseBudget <= -phaseLen {
			target = p.nextPhase()
		}
		inst.Target = p.blocks[target].startPC
		p.ghist = p.ghist<<1 | b2u(taken)
		p.branches++
		if taken {
			p.taken++
			p.cur = target
		} else {
			p.cur = (p.cur + 1) % int32(len(p.blocks))
		}
	} else {
		target := b.jumpTarget
		if p.phaseBudget <= 0 {
			target = p.nextPhase()
		}
		inst.Kind = trace.Jump
		inst.Src1 = trace.NoReg
		inst.Src2 = trace.NoReg
		inst.Taken = true
		inst.Target = p.blocks[target].startPC
		p.cur = target
	}
	p.slot = 0
	p.insts++
	p.phaseBudget--
	return true
}

// NextInsts implements trace.InstSource by filling dst through Next, so a
// consumer takes a whole batch from a live Program with one call. It shares
// Next's position: the two may be interleaved. The stream never ends, so
// dst is always filled.
func (p *Program) NextInsts(dst []trace.Inst) int {
	for i := range dst {
		p.Next(&dst[i])
	}
	return len(dst)
}

// NextBranches implements trace.BranchSource by filtering the live stream
// (trace.FilterBranches): the generator still synthesizes every instruction
// (its RNG state depends on all of them), but only the conditional
// branches cross the interface, in batches, with their stream positions.
// It lets a live Program and a recording's replay cursor serve the
// accuracy simulator interchangeably.
func (p *Program) NextBranches(dst []trace.BranchRec) int {
	if p.filter == nil {
		p.filter = trace.FilterBranches(p)
	}
	return p.filter.NextBranches(dst)
}

// InstsScanned implements trace.BranchSource: the instructions generated so
// far (the stream is infinite, so NextBranches never reports exhaustion).
func (p *Program) InstsScanned() int64 { return p.insts }

// nextPhase advances the phase scheduler and returns the next region's
// start block.
func (p *Program) nextPhase() int32 {
	p.regionIdx = (p.regionIdx + 1) % len(p.regionStarts)
	p.phaseBudget = phaseLen
	return p.regionStarts[p.regionIdx]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BranchClassName implements funcsim's optional classifier diagnostic: it
// reports the behaviour class of the static branch at pc.
func (p *Program) BranchClassName(pc uint64) (string, bool) {
	if p.classByPC == nil {
		p.classByPC = make(map[uint64]BranchClass, len(p.blocks))
		for i := range p.blocks {
			b := &p.blocks[i]
			if b.cond {
				p.classByPC[b.brPC] = b.br.class
			}
		}
	}
	c, ok := p.classByPC[pc]
	if !ok {
		return "", false
	}
	return c.String(), true
}
