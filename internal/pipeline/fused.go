package pipeline

import (
	"fmt"
	"math/bits"

	"branchsim/internal/btb"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// This file is the timing engine: one trace pass feeds every pipeline
// configuration of a grid column at once, and Sim.Run is the same engine
// with one lane. A test-only reference simulator (reference_test.go) —
// instruction at a time, live caches, scalar state — pins every Result bit
// for bit (TestFusedTimingEquivalence, FuzzEngineVsReference). The engine
// is fast per lane because
//
//   - the 256-entry instruction batch is decoded once and its lane-invariant
//     columns (fetch-block addresses, port classes, memory-hierarchy outcome
//     classes and the latency classes derived from them, and the batch's
//     branch PCs, outcomes and per-instruction branch ordinals) are computed
//     once, then every lane consumes the shared batch. The outcome classes
//     come from a covering MemSidecar or, for any other source, from one
//     shared hierarchy stepped over the batch (memHier.classify): the access
//     sequence does not depend on the predictor, so no lane has caches of
//     its own;
//   - every lane's predictor is driven through one step protocol, the
//     stepper core.BatchStepperOf resolves for it. A lane whose predictions
//     depend on the branch stream alone steps once per batch, before the
//     sweep, over the branch columns, and leaves per-branch prediction and
//     (for an overriding pair, core.Overriding.StepBatchOverrides) override
//     bits that the branch sweep reads with no interface call. A clocked
//     lane (core.NeedsClock: gshare.fast, BiModeFast, NoCheckpoint and
//     overriding pairs holding one) needs each branch's fetch cycle, which
//     depends on its earlier predictions, so it steps one branch at a time
//     inside the sweep through the same step, with a one-entry cycle column
//     holding the branch's fetch cycle;
//   - lanes are interleaved per instruction: each lane's scoreboard update
//     is a serial dependency chain (ring probe → reserve → commit), and
//     stepping all lanes through one instruction before advancing lets those
//     independent chains overlap in the host pipeline instead of running
//     back to back;
//   - the slot rings keep one count byte per cycle, eight cycles to a word
//     (byteRing), so one reservation probe inspects eight cycles with two
//     loads and a branch-free full-slot mask, and the ROB cursor wraps with
//     a compare instead of an integer division.
//
// All lanes advance in lockstep over the shared batch, so the engine needs
// no cross-lane synchronization: lanes never read each other's state, and
// the only shared mutable values are the batch columns, written before the
// lane sweep begins.

// Lane is one pipeline configuration of a fused timing pass: a machine
// config and the predictor organization driving its fetch stage. Every lane
// of a RunMany call must share one cache geometry (MemGeometryOf), the
// grouping the fused experiment scheduler guarantees — it is what lets one
// trace pass and one memory sidecar serve the whole column.
type Lane struct {
	Cfg  Config
	Pred predictor.Predictor
}

// RunMany replays up to maxInsts instructions from src through every lane
// at once and returns the per-lane results, index-aligned with lanes. Each
// lane's Result is exactly what a one-lane run over its own replay of the
// same stream returns; fusion is an execution strategy, not an observable
// one. The first warmupInsts instructions train every structure but are
// excluded from the statistics; a warm-up outside [0, maxInsts) panics.
// The sidecar is used only for a *trace.Cursor it covers (same recording,
// replayed from the start, same cache geometry); with any other source —
// a live generator, an uncovered cursor — the engine classifies each batch
// as it arrives, with the same results.
func RunMany(lanes []Lane, src trace.Source, side *MemSidecar, maxInsts, warmupInsts int64) []Result {
	if warmupInsts < 0 || warmupInsts >= maxInsts {
		panic(fmt.Sprintf("pipeline: RunMany on %s: warm-up %d insts outside [0, maxInsts %d)",
			src.Name(), warmupInsts, maxInsts))
	}
	if len(lanes) == 0 {
		return nil
	}
	geom := MemGeometryOf(lanes[0].Cfg)
	for _, l := range lanes[1:] {
		if MemGeometryOf(l.Cfg) != geom {
			panic("pipeline: RunMany lanes must share one cache geometry")
		}
	}
	// Geometry is lane-invariant (checked above), so covers for lanes[0]
	// decides for the whole column.
	if cur, ok := src.(*trace.Cursor); !ok || side == nil || !side.covers(lanes[0].Cfg, cur) {
		side = nil
	}
	f := newFusedRun(lanes, side, maxInsts, warmupInsts)
	f.drive(src)
	if f.insts < warmupInsts {
		panic(fmt.Sprintf("pipeline: RunMany on %s: stream ended after %d insts, inside the %d-inst warm-up",
			src.Name(), f.insts, warmupInsts))
	}
	return f.finish(src.Name())
}

// ringSize is the scoreboard window in cycles: a ring slot is reused once
// its cycle is ringSize old, far beyond any latency the model produces.
const ringSize = 1 << 15

// byteRing is the engine's slot ring: one reservation count per cycle,
// packed eight cycles to a word, so a probe inspects eight cycles with one
// load. The test reference's slotRing (reference_test.go) keeps a tagged
// slot per cycle and forgets a cycle when a younger one aliases its slot;
// byteRing instead forgets by zeroing count bytes one lap ahead of the scan
// frontier (laneRings.extend) — the same "a cycle older than ringSize reads
// as empty" contract, amortized to a fraction of a store per cycle.
type byteRing struct {
	// w's byte c&7 of word (c&(ringSize-1))>>3 counts cycle c. The
	// fixed-size array lets the masked index elide bounds checks in the
	// scan loop.
	w *[ringSize / 8]uint64
	// limitRep is the slot limit replicated into every byte lane; a cycle
	// is full exactly when its count byte equals the limit, since
	// reservations only land on proven-free cycles.
	limitRep uint64
}

const (
	byteOneRep  = 0x0101010101010101
	byteHighRep = 0x8080808080808080
)

func newByteRing(limit int) byteRing {
	if limit <= 0 || limit > 127 {
		panic("pipeline: byte ring limit out of range")
	}
	return byteRing{w: new([ringSize / 8]uint64), limitRep: uint64(limit) * byteOneRep}
}

// clearChunk is how far past the requested cycle extend zeroes in one call;
// the hot path then skips the slow path for the next ~chunk cycles.
const clearChunk = 512

// extend zeroes the count bytes for cycles [clearedTo, t+clearChunk) in all
// five rings, reclaiming slots exactly one lap (ringSize cycles) old. It
// preserves the invariant that every cycle in [clearedTo-ringSize,
// clearedTo) reads its own count and anything older reads as forgotten —
// the aliasing contract the reference's slotRing enforces per probe with a
// tag compare.
func (rg *laneRings) extend(t uint64) {
	to := (t + clearChunk) &^ 7
	issue, p0, p1, p2, p3 := rg.issue.w, rg.ports[0].w, rg.ports[1].w, rg.ports[2].w, rg.ports[3].w
	for c := rg.clearedTo; c < to; c += 8 {
		i := (c & (ringSize - 1)) >> 3
		issue[i] = 0
		p0[i] = 0
		p1[i] = 0
		p2[i] = 0
		p3[i] = 0
	}
	rg.clearedTo = to
}

// takeInBoth books the first cycle at or after t with a free slot in both
// the issue ring and port ring p, and returns it: the reference slotRing's
// scan-then-reserve collapsed into one word-at-a-time pass. A count byte
// equals its ring's limit iff the matching byte of count^limitRep is zero;
// forcing each byte's high bit before the (now borrow-free) decrement
// leaves the high bit set exactly for nonzero bytes, so the AND of the two
// rings' masks has a high bit per free-in-both cycle and TrailingZeros
// lands on the first one. The body is the loop-free first-word probe, the
// common case; takeScan continues word by word when the first word is
// booked solid. The probe is too large for the inliner (cost 192 against
// a budget of 80), so each lane sweep calls it; a profile-guided build that
// inlines it measured no gain on the timing grid.
func (rg *laneRings) takeInBoth(p uint8, t uint64) uint64 {
	if t+8 <= rg.clearedTo {
		i := (t & (ringSize - 1)) >> 3
		zx := rg.issue.w[i] ^ rg.issue.limitRep
		zy := rg.ports[p].w[i] ^ rg.ports[p].limitRep
		free := ((zx | byteHighRep) - byteOneRep) & ((zy | byteHighRep) - byteOneRep) & byteHighRep
		free &= ^uint64(0) << ((t & 7) * 8) // cycles before t are not candidates
		if free != 0 {
			j := uint64(bits.TrailingZeros64(free)) >> 3
			sh := j * 8
			// Counts stay strictly below the ≤127 limit on free cycles, so
			// the byte increments cannot carry into a neighbor.
			rg.issue.w[i] += 1 << sh
			rg.ports[p].w[i] += 1 << sh
			return t&^7 + j
		}
		t = t&^7 + 8
	}
	return rg.takeScan(p, t)
}

// takeScan is takeInBoth's slow path: extend the zeroed horizon when the
// probe has outrun it, then scan whole words until a free-in-both cycle
// appears. Entered either at an uncleared cycle or at a word boundary past
// a fully booked word.
func (rg *laneRings) takeScan(p uint8, t uint64) uint64 {
	iw := rg.issue.w
	pw := rg.ports[p].w
	il := rg.issue.limitRep
	pl := rg.ports[p].limitRep
	for {
		if t+8 > rg.clearedTo {
			rg.extend(t)
		}
		i := (t & (ringSize - 1)) >> 3
		zx := iw[i] ^ il
		zy := pw[i] ^ pl
		free := ((zx | byteHighRep) - byteOneRep) & ((zy | byteHighRep) - byteOneRep) & byteHighRep
		free &= ^uint64(0) << ((t & 7) * 8) // cycles before t are not candidates
		if free != 0 {
			j := uint64(bits.TrailingZeros64(free)) >> 3
			sh := j * 8
			iw[i] += 1 << sh
			pw[i] += 1 << sh
			return t&^7 + j
		}
		t = t&^7 + 8
	}
}

// Port classes: the shared pcls column maps each instruction to its lane's
// issue port ring, and the lcls column to its execution-latency table slot.
const (
	portInt = iota
	portMem
	portMul
	portFP
	numPorts
)

const (
	latOne     = iota // single-cycle: ALU, branches, jumps, stores
	latMul            // MulLatency
	latFP             // FPLatency
	latLoadL1         // load, L1D hit
	latLoadL2         // load, L2 hit
	latLoadMem        // load, memory
	numLats
)

// laneConst is a lane's config, predigested: the per-instruction constants
// the step loop needs, extracted once so the hot loop reads a flat SoA
// entry instead of Config fields. fLat maps fetch classes to this lane's
// fetch stall; latTab maps lcls latency classes to execution latencies.
type laneConst struct {
	feDepth     uint64
	btbPenalty  uint64
	recovery    uint64
	commitWidth uint64
	fetchWidth  int
	robSize     int
	fLat        [4]uint64 // by fetch class: none, L1, L2, mem
	latTab      [numLats]uint64
}

// laneOrg is a lane's predictor organization: the predictor and its
// pre-resolved step. clocked is set for a lane that steps one branch at a
// time at its fetch cycle (core.NeedsClock); every other lane steps once
// per batch. bubble is an overriding pair's override cost in cycles.
type laneOrg struct {
	pred    predictor.Predictor
	over    *core.Overriding
	stepper predictor.BatchStepper
	clocked bool
	bubble  uint64
}

// step runs the lane's prediction stage over a run of branches: preds gets
// each predicted direction and, for an overriding pair, overrode whether the
// slow predictor overrode the quick one.
func (o *laneOrg) step(pcs []uint64, takens []bool, cycles []uint64, preds, overrode []bool) {
	if o.over != nil {
		o.over.StepBatchOverrides(pcs, takens, cycles, preds, overrode)
	} else {
		o.stepper.StepBatch(pcs, takens, cycles, preds)
	}
}

// lanePreds is a lane's prediction stage output for the current batch,
// indexed by branch ordinal (fusedRun.bord): each branch's
// predicted direction and, for an overriding pair, whether the slow
// predictor overrode the quick one.
type lanePreds struct {
	taken    [trace.InstBatchLen]bool
	overrode [trace.InstBatchLen]bool
}

// laneRings is a lane's issue-bandwidth and port scoreboard plus its ROB
// commit window. The port rings are indexed by the shared pcls column.
// robCommit holds the commit cycle of each of the last ROBSize
// instructions, indexed by laneCursor.robIdx; the slot about to be reused
// bounds how far fetch may run ahead of commit. There is no per-cycle
// commit slot ring: commit probes are monotone non-decreasing (commitAt is
// clamped to lastCommit and a reservation only moves forward), so a probed
// cycle is never revisited after a later one and such a ring degenerates to
// the (lastCommit, commitUsed) pair in laneCursor.
type laneRings struct {
	issue     byteRing
	ports     [numPorts]byteRing
	robCommit []uint64
	// clearedTo is the rings' zeroed horizon: count bytes are valid for
	// cycles in [clearedTo-ringSize, clearedTo) and zero from the scan
	// frontier up to clearedTo; extend advances it in clearChunk strides.
	clearedTo uint64
}

// laneCursor is a lane's mutable scalar state between instructions. One
// entry spans a single cache line, so the per-instruction lane sweep
// touches one hot line per lane.
type laneCursor struct {
	fetchCycle     uint64
	lastFetchBlock uint64
	lastCommit     uint64
	commitUsed     uint64 // commits taken at cycle lastCommit; replaces the monotone commit slot ring
	fetchStall     uint64
	warmupCycle    uint64
	fetchUsed      int
	robIdx         int
}

// laneTallies is a lane's statistics: branch and BTB rates, and the
// I-side fetch class histogram (fetch accesses depend on the lane's own
// redirect pattern, so the histogram cannot be shared the way the D-side
// one is — see fusedRun.lT).
type laneTallies struct {
	measBranches stats.Rate
	overrides    stats.Rate
	btbMisses    stats.Rate
	fT           [4]uint64
}

// fusedRun is the engine state: per-lane state in index-aligned SoA slices
// (one slice per state family, all indexed by lane), the shared stream
// cursor, and the shared per-batch columns.
type fusedRun struct {
	consts  []laneConst
	orgs    []laneOrg
	preds   []lanePreds
	rings   []laneRings
	btbs    []*btb.BTB
	cursors []laneCursor
	tallies []laneTallies
	regs    [][trace.NumRegs]uint64 // per-lane register-ready cycles

	insts       int64 // instructions fed to every lane so far
	maxInsts    int64
	warmupInsts int64
	blockMask   uint64
	// Exactly one of side and hier is set: a sidecar covering the run, or
	// the shared hierarchy prep classifies each batch with.
	side *MemSidecar
	hier *memHier

	// lT and sT are the D-side mem class histograms. Loads and stores
	// access the D-cache unconditionally in program order, so — unlike the
	// I-side — every lane's tally is identical and one shared count
	// serves the whole column.
	lT [4]uint64
	sT [4]uint64

	// Shared per-batch columns, computed once per batch by prep. The class
	// columns fcls/mcls are the packed class bytes (the sidecar's, or cls
	// when hier computes them) unpacked by batch offset. The
	// branch columns bpcs/btakens hold the batch's nb conditional branches
	// in stream order, and bord maps each branch's batch offset to its
	// ordinal among them.
	batch   [trace.InstBatchLen]trace.Inst
	cls     [trace.InstBatchLen]uint8
	blocks  [trace.InstBatchLen]uint64
	pcls    [trace.InstBatchLen]uint8
	lcls    [trace.InstBatchLen]uint8
	fcls    [trace.InstBatchLen]uint8
	mcls    [trace.InstBatchLen]uint8
	bord    [trace.InstBatchLen]uint16
	bpcs    [trace.InstBatchLen]uint64
	btakens [trace.InstBatchLen]bool
	nb      int

	// fetchAt is the one-entry cycle column a clocked lane steps with.
	fetchAt [1]uint64
}

// newFusedRun builds the per-lane SoA state for one pass, panicking on a
// lane config the engine cannot simulate (checkLane). side must cover the
// run or be nil, in which case the pass gets its own memHier.
func newFusedRun(lanes []Lane, side *MemSidecar, maxInsts, warmupInsts int64) *fusedRun {
	n := len(lanes)
	f := &fusedRun{
		consts:      make([]laneConst, n),
		orgs:        make([]laneOrg, n),
		preds:       make([]lanePreds, n),
		rings:       make([]laneRings, n),
		btbs:        make([]*btb.BTB, n),
		cursors:     make([]laneCursor, n),
		tallies:     make([]laneTallies, n),
		regs:        make([][trace.NumRegs]uint64, n),
		maxInsts:    maxInsts,
		warmupInsts: warmupInsts,
		side:        side,
		blockMask:   ^uint64(int64(lanes[0].Cfg.L1I.LineBytes) - 1),
	}
	if side == nil {
		f.hier = newMemHier(MemGeometryOf(lanes[0].Cfg))
	}
	for i, l := range lanes {
		cfg := l.Cfg
		checkLane(i, cfg)
		k := &f.consts[i]
		k.feDepth = uint64(cfg.frontEndDepth())
		k.btbPenalty = uint64(cfg.BTBMissPenalty)
		k.commitWidth = uint64(cfg.CommitWidth)
		k.fetchWidth = cfg.FetchWidth
		k.robSize = cfg.ROBSize
		l2Lat, memLat := uint64(cfg.L2Latency), uint64(cfg.MemLatency)
		k.fLat = [4]uint64{0, 0, l2Lat, memLat}
		k.latTab = [numLats]uint64{
			latOne:     1,
			latMul:     uint64(cfg.MulLatency),
			latFP:      uint64(cfg.FPLatency),
			latLoadL1:  uint64(cfg.L1DLatency),
			latLoadL2:  l2Lat,
			latLoadMem: memLat,
		}

		o := &f.orgs[i]
		o.pred = l.Pred
		o.over, _ = l.Pred.(*core.Overriding)
		if o.over != nil {
			o.bubble = uint64(o.over.Latency() - 1)
		}
		o.stepper = core.BatchStepperOf(l.Pred)
		o.clocked = core.NeedsClock(l.Pred)
		if rc, ok := l.Pred.(predictor.RecoveryCost); ok {
			k.recovery = uint64(rc.RecoveryPenalty())
		}

		f.rings[i] = laneRings{
			issue: newByteRing(cfg.IssueWidth),
			ports: [numPorts]byteRing{
				portInt: newByteRing(cfg.IntPorts),
				portMem: newByteRing(cfg.MemPorts),
				portMul: newByteRing(cfg.MulPorts),
				portFP:  newByteRing(cfg.FPPorts),
			},
			robCommit: make([]uint64, cfg.ROBSize),
			// The freshly zeroed arrays already cover the first lap.
			clearedTo: ringSize,
		}
		f.btbs[i] = btb.New(cfg.BTBEntries, cfg.BTBWays)
	}
	return f
}

// drive is the engine's one drive loop: it fills the shared batch from
// src — whole batches through trace.InstSource, one Next call at a time
// otherwise — and sweeps the lanes over it. Batch boundaries do not
// influence the scoreboard, so the fill protocol cannot change a result.
//
// TestFusedTimingAllocs pins it allocation-free over a sidecar and over a
// live generator.
func (f *fusedRun) drive(src trace.Source) {
	is, batched := src.(trace.InstSource)
	for f.insts < f.maxInsts {
		lim := len(f.batch)
		if want := f.maxInsts - f.insts; int64(lim) > want {
			lim = int(want)
		}
		n := 0
		if batched {
			n = is.NextInsts(f.batch[:lim])
		} else {
			for n < lim && src.Next(&f.batch[n]) {
				n++
			}
		}
		if n == 0 {
			return
		}
		f.runBatch(n)
	}
}

// runBatch precomputes the shared columns, runs the prediction stage of
// every unclocked lane over the batch's branches, resolves the warm-up
// boundary to a batch split so the step loop takes a constant measured
// flag, and sweeps the lanes. Stepping a lane's predictor ahead of its
// scoreboard is exact: without a fetch clock, a branch's prediction depends
// only on the branches before it.
//
// It runs once per 256-instruction batch; TestFusedTimingAllocs pins it
// allocation-free.
func (f *fusedRun) runBatch(n int) {
	f.prep(n)
	pcs, takens := f.bpcs[:f.nb], f.btakens[:f.nb]
	for li := range f.orgs {
		if o := &f.orgs[li]; !o.clocked {
			lp := &f.preds[li]
			o.step(pcs, takens, nil, lp.taken[:f.nb], lp.overrode[:f.nb])
		}
	}
	if d := f.warmupInsts - f.insts; d >= 0 && d < int64(n) {
		// The boundary falls inside this batch: step up to it, snapshot
		// each lane's commit cycle before the first measured instruction,
		// then step the measured rest.
		k := int(d)
		f.stepAll(0, k, false)
		for li := range f.cursors {
			f.cursors[li].warmupCycle = f.cursors[li].lastCommit
		}
		f.stepAll(k, n, true)
	} else if d >= int64(n) {
		f.stepAll(0, n, false)
	} else {
		f.stepAll(0, n, true)
	}
	f.insts += int64(n)
}

// prep computes the lane-invariant columns of the current batch: each
// instruction's fetch-block address (the lanes share one I-cache geometry),
// its fetch and mem outcome classes — the covering sidecar's bytes, or the
// shared hierarchy's classification of this batch — its port and latency
// classes, the branch columns, and the shared D-side tallies.
//
// It runs once per 256-instruction batch; TestFusedTimingAllocs pins it
// allocation-free.
func (f *fusedRun) prep(n int) {
	for i := 0; i < n; i++ {
		f.blocks[i] = f.batch[i].PC&f.blockMask + 1
	}
	var cls []uint8
	if f.side != nil {
		cls = f.side.class[f.insts : f.insts+int64(n)]
	} else {
		cls = f.cls[:n]
		f.hier.classify(f.batch[:n], cls)
	}
	for i := 0; i < n; i++ {
		c := cls[i]
		f.fcls[i] = c & sideFetchMask >> sideFetchShift
		f.mcls[i] = c & sideMemMask >> sideMemShift
	}
	nb := 0
	for i := 0; i < n; i++ {
		var pc, lc uint8
		switch f.batch[i].Kind {
		case trace.Load:
			pc = portMem
			switch f.mcls[i] {
			case sideMemL1:
				lc = latLoadL1
			case sideMemL2:
				lc = latLoadL2
			case sideMemMem:
				lc = latLoadMem
			default: // sideMemNone: loads always carry a mem class
				panic("pipeline: load with no mem class")
			}
			f.lT[f.mcls[i]]++
		case trace.Store:
			pc, lc = portMem, latOne
			f.sT[f.mcls[i]]++
		case trace.Mul:
			pc, lc = portMul, latMul
		case trace.FPU:
			pc, lc = portFP, latFP
		case trace.CondBranch:
			pc, lc = portInt, latOne
			f.bord[i] = uint16(nb)
			f.bpcs[nb] = f.batch[i].PC
			f.btakens[nb] = f.batch[i].Taken
			nb++
		case trace.ALU, trace.Jump:
			pc, lc = portInt, latOne
		default:
			panic("pipeline: unhandled instruction kind")
		}
		f.pcls[i] = pc
		f.lcls[i] = lc
	}
	f.nb = nb
}

// advanceTo moves the fetch point, held in the sweeps' hoisted locals, to
// at least cycle t, accounting the skipped cycles as stall.
func advanceTo(t, fetchCycle uint64, fetchUsed int, lastBlock, stall uint64) (uint64, int, uint64, uint64) {
	if t > fetchCycle {
		stall += t - fetchCycle
		fetchCycle = t
		fetchUsed = 0
		lastBlock = 0
	}
	return fetchCycle, fetchUsed, lastBlock, stall
}

// stepAll advances every lane over batch instructions [lo, hi), dispatching
// each instruction to the lane sweep specialized for its control-flow kind:
// the plain sweep (no prediction, no redirect, no resolution) serves the
// large majority of instructions with every branch-unit test hoisted out of
// the per-lane loop, and the branch and jump sweeps carry the prediction
// and BTB stages only where they can fire. Every sweep runs the same stage
// order — fetch, predict, BTB, issue, resolve, commit — as the test
// reference's step; for a batch-stepped lane the predict stage reads the
// bits runBatch already computed. measured says whether this sub-batch lies past the
// warm-up boundary; runBatch splits batches so it never varies inside one
// call.
//
// It runs once per instruction per lane; TestFusedTimingAllocs pins it
// allocation-free.
func (f *fusedRun) stepAll(lo, hi int, measured bool) {
	for i := lo; i < hi; i++ {
		switch f.batch[i].Kind {
		case trace.CondBranch:
			f.sweepBranch(i, measured)
		case trace.Jump:
			f.sweepJump(i)
		case trace.ALU, trace.Mul, trace.FPU, trace.Load, trace.Store:
			f.sweepPlain(i)
		default:
			panic("pipeline: unhandled instruction kind")
		}
	}
}

// sweepPlain steps every lane through one non-control-flow instruction:
// fetch, issue, commit. Branches and jumps never reach it, so the
// prediction, redirect, and resolution stages are absent rather than
// tested per lane.
//
// TestFusedTimingAllocs pins it allocation-free.
func (f *fusedRun) sweepPlain(i int) {
	consts := f.consts
	nLanes := len(consts)
	cursors := f.cursors[:nLanes]
	rings := f.rings[:nLanes]
	tallies := f.tallies[:nLanes]
	regs := f.regs[:nLanes]
	inst := &f.batch[i]
	block := f.blocks[i]
	pcl := f.pcls[i]
	lcl := f.lcls[i]
	fcl := f.fcls[i]
	s1, s2, dst := inst.Src1, inst.Src2, inst.Dst

	for li := 0; li < nLanes; li++ {
		k := &consts[li]
		cu := &cursors[li]
		rg := &rings[li]
		rr := &regs[li]

		fetchCycle := cu.fetchCycle
		fetchUsed := cu.fetchUsed
		lastBlock := cu.lastFetchBlock
		fetchStall := cu.fetchStall

		// --- Fetch ---
		if fetchUsed >= k.fetchWidth {
			fetchCycle++
			fetchUsed = 0
			lastBlock = 0
		}
		if block != lastBlock {
			if lastBlock != 0 {
				fetchCycle++
				fetchUsed = 0
			}
			tallies[li].fT[fcl]++
			if lat := k.fLat[fcl]; lat > 0 {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(fetchCycle+lat, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			lastBlock = block
		}
		fetchAt := fetchCycle
		fetchUsed++

		// Keep fetch from running unboundedly ahead of commit.
		robIdx := cu.robIdx
		oldestCommit := rg.robCommit[robIdx]
		dispatchAt := fetchAt + k.feDepth
		if dispatchAt <= oldestCommit {
			if oldestCommit+1 > k.feDepth {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(oldestCommit+1-k.feDepth, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			fetchAt = fetchCycle
			dispatchAt = fetchAt + k.feDepth
		}

		// --- Issue ---
		ready := dispatchAt
		if s1 >= 0 {
			if t := rr[s1]; t > ready {
				ready = t
			}
		}
		if s2 >= 0 {
			if t := rr[s2]; t > ready {
				ready = t
			}
		}
		execLat := k.latTab[lcl]
		issueAt := rg.takeInBoth(pcl, ready)
		completeAt := issueAt + execLat

		if dst >= 0 {
			rr[dst] = completeAt
		}

		// --- Commit ---
		lastCommit := cu.lastCommit
		commitUsed := cu.commitUsed
		commitAt := completeAt + 1
		if commitAt > lastCommit {
			lastCommit = commitAt
			commitUsed = 1
		} else if commitUsed < k.commitWidth {
			commitUsed++ // in-order commit at the current cycle
		} else {
			lastCommit++ // commit bandwidth exhausted: next cycle
			commitUsed = 1
		}
		rg.robCommit[robIdx] = lastCommit
		robIdx++
		if robIdx == k.robSize {
			robIdx = 0
		}

		cu.fetchCycle = fetchCycle
		cu.fetchUsed = fetchUsed
		cu.lastFetchBlock = lastBlock
		cu.lastCommit = lastCommit
		cu.commitUsed = commitUsed
		cu.fetchStall = fetchStall
		cu.robIdx = robIdx
	}
}

// sweepJump steps every lane through one unconditional jump: fetch, the
// always-taken BTB redirect, issue, commit. No prediction and no
// resolution — jumps never mispredict direction.
//
// TestFusedTimingAllocs pins it allocation-free.
func (f *fusedRun) sweepJump(i int) {
	consts := f.consts
	nLanes := len(consts)
	cursors := f.cursors[:nLanes]
	rings := f.rings[:nLanes]
	tallies := f.tallies[:nLanes]
	btbs := f.btbs[:nLanes]
	regs := f.regs[:nLanes]
	inst := &f.batch[i]
	pc := inst.PC
	block := f.blocks[i]
	pcl := f.pcls[i]
	lcl := f.lcls[i]
	fcl := f.fcls[i]
	s1, s2, dst := inst.Src1, inst.Src2, inst.Dst

	for li := 0; li < nLanes; li++ {
		k := &consts[li]
		cu := &cursors[li]
		rg := &rings[li]
		rr := &regs[li]

		fetchCycle := cu.fetchCycle
		fetchUsed := cu.fetchUsed
		lastBlock := cu.lastFetchBlock
		fetchStall := cu.fetchStall

		// --- Fetch ---
		if fetchUsed >= k.fetchWidth {
			fetchCycle++
			fetchUsed = 0
			lastBlock = 0
		}
		if block != lastBlock {
			if lastBlock != 0 {
				fetchCycle++
				fetchUsed = 0
			}
			tallies[li].fT[fcl]++
			if lat := k.fLat[fcl]; lat > 0 {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(fetchCycle+lat, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			lastBlock = block
		}
		fetchAt := fetchCycle
		fetchUsed++

		// Keep fetch from running unboundedly ahead of commit.
		robIdx := cu.robIdx
		oldestCommit := rg.robCommit[robIdx]
		dispatchAt := fetchAt + k.feDepth
		if dispatchAt <= oldestCommit {
			if oldestCommit+1 > k.feDepth {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(oldestCommit+1-k.feDepth, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			fetchAt = fetchCycle
			dispatchAt = fetchAt + k.feDepth
		}

		// Taken control flow: BTB target or decode redirect.
		b := btbs[li]
		_, hit := b.Lookup(pc)
		if !hit {
			tallies[li].btbMisses.Add(true)
			fetchCycle, fetchUsed, lastBlock, fetchStall =
				advanceTo(fetchAt+1+k.btbPenalty, fetchCycle, fetchUsed, lastBlock, fetchStall)
		} else {
			tallies[li].btbMisses.Add(false)
			fetchCycle++ // taken-branch fetch break
			fetchUsed = 0
			lastBlock = 0
		}
		b.Insert(pc, inst.Target)

		// --- Issue ---
		ready := dispatchAt
		if s1 >= 0 {
			if t := rr[s1]; t > ready {
				ready = t
			}
		}
		if s2 >= 0 {
			if t := rr[s2]; t > ready {
				ready = t
			}
		}
		execLat := k.latTab[lcl]
		issueAt := rg.takeInBoth(pcl, ready)
		completeAt := issueAt + execLat

		if dst >= 0 {
			rr[dst] = completeAt
		}

		// --- Commit ---
		lastCommit := cu.lastCommit
		commitUsed := cu.commitUsed
		commitAt := completeAt + 1
		if commitAt > lastCommit {
			lastCommit = commitAt
			commitUsed = 1
		} else if commitUsed < k.commitWidth {
			commitUsed++ // in-order commit at the current cycle
		} else {
			lastCommit++ // commit bandwidth exhausted: next cycle
			commitUsed = 1
		}
		rg.robCommit[robIdx] = lastCommit
		robIdx++
		if robIdx == k.robSize {
			robIdx = 0
		}

		cu.fetchCycle = fetchCycle
		cu.fetchUsed = fetchUsed
		cu.lastFetchBlock = lastBlock
		cu.lastCommit = lastCommit
		cu.commitUsed = commitUsed
		cu.fetchStall = fetchStall
		cu.robIdx = robIdx
	}
}

// sweepBranch steps every lane through one conditional branch: fetch,
// prediction (with override bubbles), the predicted-taken BTB redirect,
// issue, resolution, commit. Each lane's prediction and override bits are
// read from its lanePreds at the branch's ordinal; a clocked lane first
// steps this one branch there, at its fetch cycle.
//
// TestFusedTimingAllocs pins it allocation-free.
func (f *fusedRun) sweepBranch(i int, measured bool) {
	consts := f.consts
	nLanes := len(consts)
	cursors := f.cursors[:nLanes]
	rings := f.rings[:nLanes]
	tallies := f.tallies[:nLanes]
	orgs := f.orgs[:nLanes]
	preds := f.preds[:nLanes]
	btbs := f.btbs[:nLanes]
	regs := f.regs[:nLanes]
	inst := &f.batch[i]
	pc := inst.PC
	block := f.blocks[i]
	pcl := f.pcls[i]
	lcl := f.lcls[i]
	fcl := f.fcls[i]
	bi := f.bord[i]
	s1, s2, dst := inst.Src1, inst.Src2, inst.Dst
	taken := inst.Taken

	for li := 0; li < nLanes; li++ {
		k := &consts[li]
		cu := &cursors[li]
		rg := &rings[li]
		rr := &regs[li]

		fetchCycle := cu.fetchCycle
		fetchUsed := cu.fetchUsed
		lastBlock := cu.lastFetchBlock
		fetchStall := cu.fetchStall

		// --- Fetch ---
		if fetchUsed >= k.fetchWidth {
			fetchCycle++
			fetchUsed = 0
			lastBlock = 0
		}
		if block != lastBlock {
			if lastBlock != 0 {
				fetchCycle++
				fetchUsed = 0
			}
			tallies[li].fT[fcl]++
			if lat := k.fLat[fcl]; lat > 0 {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(fetchCycle+lat, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			lastBlock = block
		}
		fetchAt := fetchCycle
		fetchUsed++

		// Keep fetch from running unboundedly ahead of commit.
		robIdx := cu.robIdx
		oldestCommit := rg.robCommit[robIdx]
		dispatchAt := fetchAt + k.feDepth
		if dispatchAt <= oldestCommit {
			if oldestCommit+1 > k.feDepth {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(oldestCommit+1-k.feDepth, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
			fetchAt = fetchCycle
			dispatchAt = fetchAt + k.feDepth
		}

		// --- Branch prediction at fetch ---
		org := &orgs[li]
		lp := &preds[li]
		if org.clocked {
			f.fetchAt[0] = fetchAt
			org.step(f.bpcs[bi:bi+1], f.btakens[bi:bi+1], f.fetchAt[:], lp.taken[bi:bi+1], lp.overrode[bi:bi+1])
		}
		predictedTaken, overrode := lp.taken[bi], lp.overrode[bi]
		if org.over != nil {
			tallies[li].overrides.Add(overrode)
			if overrode {
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(fetchAt+1+org.bubble, fetchCycle, fetchUsed, lastBlock, fetchStall)
			}
		}

		// Taken control flow: BTB target or decode redirect.
		if predictedTaken && taken {
			b := btbs[li]
			_, hit := b.Lookup(pc)
			if !hit {
				tallies[li].btbMisses.Add(true)
				fetchCycle, fetchUsed, lastBlock, fetchStall =
					advanceTo(fetchAt+1+k.btbPenalty, fetchCycle, fetchUsed, lastBlock, fetchStall)
			} else {
				tallies[li].btbMisses.Add(false)
				fetchCycle++ // taken-branch fetch break
				fetchUsed = 0
				lastBlock = 0
			}
			b.Insert(pc, inst.Target)
		}

		// --- Issue ---
		ready := dispatchAt
		if s1 >= 0 {
			if t := rr[s1]; t > ready {
				ready = t
			}
		}
		if s2 >= 0 {
			if t := rr[s2]; t > ready {
				ready = t
			}
		}
		execLat := k.latTab[lcl]
		issueAt := rg.takeInBoth(pcl, ready)
		completeAt := issueAt + execLat

		if dst >= 0 {
			rr[dst] = completeAt
		}

		// --- Branch resolution ---
		miss := predictedTaken != taken
		tl := &tallies[li]
		if measured {
			tl.measBranches.Add(miss)
		}
		if miss {
			fetchCycle, fetchUsed, lastBlock, fetchStall =
				advanceTo(completeAt+1+k.recovery, fetchCycle, fetchUsed, lastBlock, fetchStall)
		}

		// --- Commit ---
		lastCommit := cu.lastCommit
		commitUsed := cu.commitUsed
		commitAt := completeAt + 1
		if commitAt > lastCommit {
			lastCommit = commitAt
			commitUsed = 1
		} else if commitUsed < k.commitWidth {
			commitUsed++ // in-order commit at the current cycle
		} else {
			lastCommit++ // commit bandwidth exhausted: next cycle
			commitUsed = 1
		}
		rg.robCommit[robIdx] = lastCommit
		robIdx++
		if robIdx == k.robSize {
			robIdx = 0
		}

		cu.fetchCycle = fetchCycle
		cu.fetchUsed = fetchUsed
		cu.lastFetchBlock = lastBlock
		cu.lastCommit = lastCommit
		cu.commitUsed = commitUsed
		cu.fetchStall = fetchStall
		cu.robIdx = robIdx
	}
}

// finish assembles the per-lane Results, index-aligned with the lanes. It
// folds the outcome-class histograms into the access/miss ratios live
// caches would have counted: the same levels, the same zero-total rule.
func (f *fusedRun) finish(workload string) []Result {
	out := make([]Result, len(f.rings))
	for li := range out {
		org := &f.orgs[li]
		cu := &f.cursors[li]
		tl := &f.tallies[li]
		r := Result{
			Workload:         workload,
			Predictor:        org.pred.Name(),
			Insts:            f.insts - f.warmupInsts,
			Cycles:           cu.lastCommit - cu.warmupCycle,
			Branches:         tl.measBranches.Total,
			Mispredicts:      tl.measBranches.Events,
			BTBMissRate:      tl.btbMisses.Value(),
			FetchStallCycles: cu.fetchStall,
		}
		// An I-side fetch miss and a D-side load miss reach the L2; a
		// store miss only allocates in the L1D.
		fAcc := tl.fT[0] + tl.fT[1] + tl.fT[2] + tl.fT[3]
		fL2, fMem := tl.fT[2], tl.fT[3]
		lAcc := f.lT[0] + f.lT[1] + f.lT[2] + f.lT[3]
		lL2, lMem := f.lT[2], f.lT[3]
		sAcc := f.sT[0] + f.sT[1] + f.sT[2] + f.sT[3]
		r.L1IMissRate = missRate(fL2+fMem, fAcc)
		r.L1DMissRate = missRate(lL2+lMem+f.sT[3], lAcc+sAcc)
		r.L2MissRate = missRate(fMem+lMem, fL2+fMem+lL2+lMem)
		if org.over != nil {
			r.Overrides = tl.overrides.Events
			r.OverrideRate = tl.overrides.Value()
		}
		out[li] = r
	}
	return out
}
