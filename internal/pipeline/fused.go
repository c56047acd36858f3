package pipeline

import (
	"fmt"
	"reflect"

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
//   - each distinct predictor instance steps once per batch. A lane whose
//     predictions depend on the branch stream alone (core.NeedsClock false)
//     reads them from a shared 256-entry column: the engine steps every
//     distinct unclocked instance — a lane's predictor, or a component of
//     an overriding pair (core.Overriding Quick/Slow) — once per batch,
//     before the sweep, through the stepper core.BatchStepperOf resolves
//     for it, and an unclocked pair's lane reads its slow column for the
//     prediction and flags an override where its quick column disagrees.
//     Lanes holding the same instance therefore share one column, and the
//     branch sweep makes no interface call for them. A clocked lane
//     (gshare.fast, BiModeFast, NoCheckpoint and overriding pairs holding
//     one) needs each branch's fetch cycle, which depends on its earlier
//     predictions, so it steps one branch at a time inside the sweep, with
//     a one-entry cycle column holding the branch's fetch cycle, into a
//     column of its own;
//   - lanes are interleaved per instruction: each lane's scoreboard update
//     is a serial dependency chain (ring probe → reserve → commit), and
//     stepping all lanes through one instruction before advancing lets those
//     independent chains overlap in the host pipeline instead of running
//     back to back;
//   - two lane sweeps, picked by kind: sweepPlain for every
//     non-control-flow instruction, with no prediction, redirect or
//     resolution test per lane, and sweepControl for branches and jumps.
//     Both run one copy of each shared stage — fetchPoint.fetch, robStall,
//     readyAt, laneCursor.commit — which the compiler inlines at every
//     call site (scripts/inlinecheck.sh fails the gate otherwise); the ROB
//     stall and each redirect the control sweep charges (override bubble,
//     BTB miss, mispredict refill) go through fetchPoint.advanceTo;
//   - the scoreboard keeps one packed uint32 per cycle: byte p counts port
//     p's reservations, and the cycle's issue count is the sum of the four
//     bytes (sumBytes), exact because every reservation books one issue
//     slot and one port slot together. Each sweep inlines the probe at the
//     instruction's ready cycle — a load, the horizon, issue and port
//     compares, an add — which books that cycle on 98.9% of the timing
//     figures' probes; the rest fall to a plain per-cycle scan
//     (takeLater). A lane's rings start at initRing cycles and double, up
//     to ringSize, only when the lane's live window — from its current
//     dispatch cycle to its furthest reservation — would otherwise wrap
//     onto itself, so a pass holds rings as large as its lanes' windows
//     rather than the cap. The ROB cursor wraps with a compare instead of
//     an integer division.
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
//
// Lanes may share predictor instances, directly or as components of
// overriding pairs: an unclocked instance (core.NeedsClock false) steps
// once per batch however many lanes read it, so a lane's Result is what a
// run with its own fresh copy returns. Identity is pointer identity; a
// predictor whose dynamic type is not a pointer is never shared. An
// unclocked pair's lanes count overrides in Result and leave the pair's
// own tally (core.Overriding.OverrideRate) untouched; a clocked lane steps
// its predictor itself, so an instance in a clocked lane may appear in no
// other lane, and no instance may appear twice in one lane: either panics,
// naming the lanes, before any instruction is read.
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
	// Every lane is checked before anything is built from its config: a bad
	// lane is named rather than hit inside the memory hierarchy or the
	// geometry guard.
	geom := MemGeometryOf(lanes[0].Cfg)
	for i, l := range lanes {
		checkLane(i, l.Cfg)
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

// ringSize is the largest scoreboard window in cycles: once a lane's rings
// have grown to it, a ring slot is reused once its cycle is ringSize old,
// far beyond any latency the model produces.
const ringSize = 1 << 15

// initRing is the ring size in cycles a lane starts with. No lane grows
// on the timing figures' grid at 125K instructions, on cmd/ipcsim's
// three 64 KB organizations at 1M, or on a full cmd/reproduce run at 100K:
// their live windows (laneRings.extend) stay inside it.
const initRing = 1 << 12

// sumBytes folds a slot word's four port counts into its top byte:
// v*sumBytes>>24 is the cycle's issue count. Every reservation books one
// issue slot and one port slot at the same cycle, so the issue count is
// the sum of the port counts, and that sum — like each partial sum the
// multiply forms in the lower bytes — never exceeds IssueWidth ≤ 127, so
// no byte carries into the next. sumBytes also picks the low bit of each
// byte: pm&sumBytes is one reservation on the port whose byte mask is pm.
const sumBytes = 0x01010101

// maxSlotLimit bounds IssueWidth and every port count (checkLane), the
// no-carry condition of the packed slot words.
const maxSlotLimit = 127

// newLaneRings returns cfg's scoreboard at initRing cycles.
func newLaneRings(cfg Config) laneRings {
	return laneRings{
		slots:      make([]uint32, initRing),
		mask:       initRing - 1,
		issueLimit: uint32(cfg.IssueWidth) << 24,
		portLimits: uint32(cfg.IntPorts)<<(8*portInt) | uint32(cfg.MemPorts)<<(8*portMem) |
			uint32(cfg.MulPorts)<<(8*portMul) | uint32(cfg.FPPorts)<<(8*portFP),
		robCommit: make([]uint64, cfg.ROBSize),
		// The freshly zeroed slots already cover the first lap.
		clearedTo: initRing,
	}
}

// clearChunk is how far past the requested cycle extend zeroes in one call;
// the hot path then skips the slow path for the next ~chunk cycles.
const clearChunk = 512

// extend zeroes the slots for cycles [clearedTo, t+clearChunk), reclaiming
// slots exactly one lap old. live is the lane's current dispatch cycle:
// fetch never moves backwards, so every later probe lands at or after it,
// and the cycles [live, clearedTo) are the live window. Before zeroing a
// slot whose previous cycle is live, extend doubles the rings (grow), up
// to ringSize; below that size no live cycle is ever forgotten, and at it
// every cycle in [clearedTo-ringSize, clearedTo) reads its own counts and
// anything older reads as forgotten — the aliasing contract the
// reference's slotRing enforces per probe with a tag compare. A jump of a
// lap or more past the horizon clears every slot, since each slot's cycle
// is then at least a lap old.
func (rg *laneRings) extend(t, live uint64) {
	to := t + clearChunk
	for to-live > uint64(len(rg.slots)) && len(rg.slots) < ringSize {
		rg.grow(live)
	}
	slots := rg.slots
	switch i, j := rg.clearedTo&rg.mask, to&rg.mask; {
	case to-rg.clearedTo > rg.mask:
		clear(slots)
	case i < j:
		clear(slots[i:j])
	default:
		clear(slots[i:])
		clear(slots[:j])
	}
	rg.clearedTo = to
}

// grow doubles the rings, re-laying out the live cycles [live, clearedTo)
// — the only ones a later probe can read — at their new slots.
func (rg *laneRings) grow(live uint64) {
	mask := rg.mask<<1 | 1
	slots := make([]uint32, mask+1)
	for c := live; c < rg.clearedTo; c++ {
		slots[c&mask] = *rg.slot(c)
	}
	rg.slots, rg.mask = slots, mask
}

// slot returns cycle c's slot word.
func (rg *laneRings) slot(c uint64) *uint32 {
	return &rg.slots[c&rg.mask]
}

// fits reports whether a cycle whose slot word is v has a free issue slot
// and a free slot on the port whose byte mask is pm. The issue count sits
// in the top byte of v*sumBytes, above 24 bits of partial sums, so it is
// below the limit exactly when the product is below issueLimit; a port's
// count never exceeds its limit, so it is below it exactly when the two
// bytes differ.
func (rg *laneRings) fits(v, pm uint32) bool {
	return v*sumBytes < rg.issueLimit && (v^rg.portLimits)&pm != 0
}

// takeLater is the sweeps' slow path: it books the first cycle at or after
// t with a free slot both in issue bandwidth and on the port whose byte
// mask is pm, extending the zeroed horizon as the scan reaches it, and
// returns it. live is the lane's current dispatch cycle (extend). Each
// sweep inlines the first-cycle probe, which books t itself on 98.9% of
// the timing figures' probes, and calls takeLater only when t is full or
// past the horizon.
func (rg *laneRings) takeLater(pm uint32, t, live uint64) uint64 {
	for ; ; t++ {
		if t >= rg.clearedTo {
			rg.extend(t, live)
		}
		if s := rg.slot(t); rg.fits(*s, pm) {
			*s += pm & sumBytes
			return t
		}
	}
}

// Port classes: the shared pcls column maps each instruction to its port,
// the byte of a lane's slot words it books, and the lcls column to its
// execution-latency table slot.
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

// laneOrg is a lane's predictor organization. An unclocked lane reads its
// predictions from the shared columns (fusedRun.cols): slow is the column
// of the instance whose prediction fetch follows, and quick the column of
// an overriding pair's quick component, or slow again when no override
// can occur. clocked is set for a lane that steps one branch at a time at
// its fetch cycle (core.NeedsClock) through stepper, or the pair's own
// step, into its own prediction column; slow then indexes fusedRun.own.
// bubble is an overriding pair's override cost in cycles.
type laneOrg struct {
	pred        predictor.Predictor
	over        *core.Overriding
	stepper     predictor.BatchStepper
	clocked     bool
	bubble      uint64
	slow, quick int
}

// step runs a clocked lane's prediction stage over a run of branches:
// preds gets each predicted direction and, for an overriding pair,
// overrode whether the slow predictor overrode the quick one.
func (o *laneOrg) step(pcs []uint64, takens []bool, cycles []uint64, preds, overrode []bool) {
	if o.over != nil {
		o.over.StepBatchOverrides(pcs, takens, cycles, preds, overrode)
	} else {
		o.stepper.StepBatch(pcs, takens, cycles, preds)
	}
}

// lanePreds is a clocked lane's prediction stage output for the current
// batch, indexed by branch ordinal (fusedRun.bord): each branch's
// predicted direction and, for an overriding pair, whether the slow
// predictor overrode the quick one.
type lanePreds struct {
	taken    [trace.InstBatchLen]bool
	overrode [trace.InstBatchLen]bool
}

// predColumn is one distinct unclocked instance's predictions for the
// current batch, indexed by branch ordinal.
type predColumn [trace.InstBatchLen]bool

// laneRings is a lane's issue-bandwidth and port scoreboard plus its ROB
// commit window. slots holds one word per cycle, cycle c at c&mask: byte p
// counts port p's reservations (p from the shared pcls column), and the
// cycle's issue count is their sum (sumBytes). len(slots) — the ring size
// in cycles — is a power of two between initRing and ringSize. issueLimit
// is IssueWidth in the top byte, and byte p of portLimits is port p's
// count.
// robCommit holds the commit cycle of each of the last ROBSize
// instructions, indexed by laneCursor.robIdx; the slot about to be reused
// bounds how far fetch may run ahead of commit. There is no per-cycle
// commit slot ring: commit probes are monotone non-decreasing (commitAt is
// clamped to lastCommit and a reservation only moves forward), so a probed
// cycle is never revisited after a later one and such a ring degenerates to
// the (lastCommit, commitUsed) pair in laneCursor.
type laneRings struct {
	slots      []uint32
	mask       uint64
	issueLimit uint32
	portLimits uint32
	robCommit  []uint64
	// clearedTo is the rings' zeroed horizon: slots are valid for the live
	// cycles below it and zero from the scan frontier up to it; extend
	// advances it in clearChunk strides.
	clearedTo uint64
}

// laneCursor is a lane's mutable state between instructions: its scalar
// cursor and its scoreboard's header (laneRings), 128 bytes together, so
// the per-instruction lane sweep touches two adjacent hot lines per lane
// where separate slices spread them over up to three. One entry measured
// about 5% fewer ns/lane-inst than two slices (BenchmarkTimingColumn in
// internal/experiments, 24 of 30 alternating pairs on a 2-core x86-64
// host).
type laneCursor struct {
	fetchPoint
	lastCommit uint64
	commitUsed uint64 // commits taken at cycle lastCommit; replaces the monotone commit slot ring
	robIdx     int
	laneRings
}

// laneTallies is a lane's statistics: branch and BTB rates, the I-side
// fetch class histogram (fetch accesses depend on the lane's own redirect
// pattern, so the histogram cannot be shared the way the D-side one is —
// see fusedRun.lT), and the commit cycle at the warm-up boundary.
type laneTallies struct {
	measBranches stats.Rate
	overrides    stats.Rate
	btbMisses    stats.Rate
	fT           [4]uint64
	warmupCycle  uint64
}

// fusedRun is the engine state: per-lane state in index-aligned SoA slices
// (one slice per state family, all indexed by lane), the shared stream
// cursor, and the shared per-batch columns.
type fusedRun struct {
	consts  []laneConst
	orgs    []laneOrg
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

	// steppers and cols are the prediction stage of the unclocked lanes:
	// one stepper and one column per distinct instance they read. own holds
	// the clocked lanes' columns, and fetchAt is the one-entry cycle column
	// a clocked lane steps with.
	steppers []predictor.BatchStepper
	cols     []predColumn
	own      []lanePreds
	fetchAt  [1]uint64
}

// newFusedRun builds the per-lane SoA state for one pass over lanes that
// passed checkLane (RunMany). side must cover the run or be nil, in which
// case the pass gets its own memHier.
func newFusedRun(lanes []Lane, side *MemSidecar, maxInsts, warmupInsts int64) *fusedRun {
	n := len(lanes)
	f := &fusedRun{
		consts:      make([]laneConst, n),
		orgs:        make([]laneOrg, n),
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
		o.clocked = core.NeedsClock(l.Pred)
		if rc, ok := l.Pred.(predictor.RecoveryCost); ok {
			k.recovery = uint64(rc.RecoveryPenalty())
		}

		f.cursors[i].laneRings = newLaneRings(cfg)
		f.btbs[i] = btb.New(cfg.BTBEntries, cfg.BTBWays)
	}
	f.assignColumns()
	return f
}

// shareable reports whether lanes may share p: only a pointer's identity
// is checked, since comparing two values of a non-comparable type panics.
func shareable(p predictor.Predictor) bool {
	return p != nil && reflect.TypeOf(p).Kind() == reflect.Pointer
}

// eachInstance calls visit on p and, for an overriding pair, on every
// component, depth first. A core.NoCheckpoint is a value wrapping a
// gshare.fast, so the gshare.fast stands for it.
func eachInstance(p predictor.Predictor, visit func(predictor.Predictor)) {
	switch w := p.(type) {
	case *core.Overriding:
		visit(w)
		eachInstance(w.Quick(), visit)
		eachInstance(w.Slow(), visit)
	case core.NoCheckpoint:
		visit(w.GShareFast)
	default:
		visit(p)
	}
}

// assignColumns gives every unclocked lane its columns, one per distinct
// instance, and every clocked lane a column of its own, after checking
// the sharing rules RunMany states. A pair's column is its slow
// component's, followed through nested pairs, so no instance is stepped
// twice.
func (f *fusedRun) assignColumns() {
	owner := map[predictor.Predictor]int{}
	for i := range f.orgs {
		eachInstance(f.orgs[i].pred, func(p predictor.Predictor) {
			if !shareable(p) {
				return
			}
			j, seen := owner[p]
			switch {
			case !seen:
				owner[p] = i
			case j == i:
				panic(fmt.Sprintf("pipeline: lane %d holds predictor %s twice", i, p.Name()))
			case f.orgs[i].clocked || f.orgs[j].clocked:
				panic(fmt.Sprintf("pipeline: lanes %d and %d share predictor %s, but a clocked lane steps its own instances",
					j, i, p.Name()))
			}
		})
	}
	col := map[predictor.Predictor]int{}
	column := func(p predictor.Predictor) int {
		for o, ok := p.(*core.Overriding); ok; o, ok = p.(*core.Overriding) {
			p = o.Slow()
		}
		share := shareable(p)
		if share {
			if c, ok := col[p]; ok {
				return c
			}
		}
		c := len(f.steppers)
		f.steppers = append(f.steppers, core.BatchStepperOf(p))
		if share {
			col[p] = c
		}
		return c
	}
	for i := range f.orgs {
		o := &f.orgs[i]
		if o.clocked {
			o.stepper = core.BatchStepperOf(o.pred)
			o.slow = len(f.own)
			f.own = append(f.own, lanePreds{})
			continue
		}
		o.slow = column(o.pred)
		o.quick = o.slow
		if o.over != nil && o.over.Latency() > 1 {
			o.quick = column(o.over.Quick())
		}
	}
	f.cols = make([]predColumn, len(f.steppers))
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

// runBatch precomputes the shared columns, steps every distinct unclocked
// instance once over the batch's branches into its column, resolves the warm-up
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
	for c, s := range f.steppers {
		s.StepBatch(pcs, takens, nil, f.cols[c][:f.nb])
	}
	if d := f.warmupInsts - f.insts; d >= 0 && d < int64(n) {
		// The boundary falls inside this batch: step up to it, snapshot
		// each lane's commit cycle before the first measured instruction,
		// then step the measured rest.
		k := int(d)
		f.stepAll(0, k, false)
		for li := range f.cursors {
			f.tallies[li].warmupCycle = f.cursors[li].lastCommit
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

// fetchPoint is a lane's fetch stage between instructions: the cycle it
// fetches in, the I-cache block it fetches from (address + 1, 0 = none),
// the cycles redirects, bubbles and misses have pushed it forward
// (Result.FetchStallCycles), and the instructions fetched in the current
// cycle. A sweep copies it into a local and the stage helpers return it
// updated, so a lane's step keeps its four words in registers. Every path
// that clears lastBlock also ends the cycle, so lastBlock == 0 implies
// used == 0.
type fetchPoint struct {
	cycle     uint64
	lastBlock uint64
	stall     uint64
	used      int
}

// advanceTo moves the fetch point to at least cycle t, charging the
// skipped cycles as stall. Every fetch-side stall the control sweep
// charges — override bubble, BTB miss, mispredict refill — goes through
// it.
func (fp fetchPoint) advanceTo(t uint64) fetchPoint {
	if t > fp.cycle {
		fp.stall += t - fp.cycle
		fp.cycle = t
		fp.used = 0
		fp.lastBlock = 0
	}
	return fp
}

// fetch places the next instruction, from I-cache block block with fetch
// class fcl, in the fetch stream: a full fetch group or a block crossing
// ends the cycle, and a new block is tallied in fT and charged its I-side
// latency as stall. The block-change branch always runs with used == 0 —
// the crossing resets it, and lastBlock == 0 implies it — so the stall is
// advanceTo(cycle+lat) without its compare.
func (fp fetchPoint) fetch(k *laneConst, fT *[4]uint64, block uint64, fcl uint8) fetchPoint {
	if fp.used >= k.fetchWidth {
		fp.cycle++
		fp.used = 0
		fp.lastBlock = 0
	}
	if block != fp.lastBlock {
		if fp.lastBlock != 0 {
			fp.cycle++
			fp.used = 0
		}
		lat := k.fLat[fcl]
		fp.cycle += lat
		fp.stall += lat
		fT[fcl]++
		fp.lastBlock = block
	}
	fp.used++
	return fp
}

// robStall keeps fetch from running unboundedly ahead of commit: the
// instruction just fetched dispatches feDepth cycles after fp.cycle into
// the ROB entry whose previous occupant commits at oldest, so fetch backs
// up until that entry is free at dispatch.
func (fp fetchPoint) robStall(oldest, feDepth uint64) fetchPoint {
	if fp.cycle+feDepth <= oldest {
		return fp.advanceTo(oldest + 1 - feDepth)
	}
	return fp
}

// readyAt returns the first cycle at or after t at which the source
// registers s1 and s2 (negative: none) are ready in rr.
func readyAt(rr *[trace.NumRegs]uint64, t uint64, s1, s2 int8) uint64 {
	if s1 >= 0 && rr[s1] > t {
		t = rr[s1]
	}
	if s2 >= 0 && rr[s2] > t {
		t = rr[s2]
	}
	return t
}

// commit retires the instruction completing at completeAt in order, at
// most commitWidth a cycle, and records its commit cycle in robIdx, the
// ROB entry it held.
func (cu *laneCursor) commit(k *laneConst, robIdx int, completeAt uint64) {
	last, used := cu.lastCommit, cu.commitUsed
	switch at := completeAt + 1; {
	case at > last:
		last, used = at, 1
	case used < k.commitWidth:
		used++ // in-order commit at the current cycle
	default:
		last++ // commit bandwidth exhausted: next cycle
		used = 1
	}
	cu.robCommit[robIdx] = last
	if robIdx++; robIdx == k.robSize {
		robIdx = 0
	}
	cu.lastCommit, cu.commitUsed, cu.robIdx = last, used, robIdx
}

// stepAll advances every lane over batch instructions [lo, hi), dispatching
// each instruction to the lane sweep for its kind: the plain sweep (no
// prediction, no redirect, no resolution) serves the large majority of
// instructions with every branch-unit test hoisted out of the per-lane
// loop, and the control sweep carries the prediction, BTB and resolution
// stages for branches and jumps. Both run the test reference's stage order
// — fetch, predict, BTB, issue, resolve, commit — through the same fetch,
// ROB-stall, readiness and commit helpers; for a batch-stepped lane the
// predict stage reads the bits runBatch already computed. measured says
// whether this sub-batch lies past the warm-up boundary; runBatch splits
// batches so it never varies inside one call.
//
// It runs once per instruction per lane; TestFusedTimingAllocs pins it
// allocation-free.
func (f *fusedRun) stepAll(lo, hi int, measured bool) {
	for i := lo; i < hi; i++ {
		switch f.batch[i].Kind {
		case trace.CondBranch, trace.Jump:
			f.sweepControl(i, measured)
		case trace.ALU, trace.Mul, trace.FPU, trace.Load, trace.Store:
			f.sweepPlain(i)
		default:
			panic("pipeline: unhandled instruction kind")
		}
	}
}

// sweepPlain steps every lane through one non-control-flow instruction:
// fetch, issue, commit.
//
// TestFusedTimingAllocs pins it allocation-free.
func (f *fusedRun) sweepPlain(i int) {
	consts := f.consts
	nLanes := len(consts)
	cursors := f.cursors[:nLanes]
	tallies := f.tallies[:nLanes]
	regs := f.regs[:nLanes]
	inst := &f.batch[i]
	block := f.blocks[i]
	pm := uint32(0xff) << (8 * f.pcls[i]) // the port's byte in a slot word
	lcl := f.lcls[i]
	fcl := f.fcls[i]
	s1, s2, dst := inst.Src1, inst.Src2, inst.Dst

	for li := 0; li < nLanes; li++ {
		k := &consts[li]
		cu := &cursors[li]
		rg := &cu.laneRings
		rr := &regs[li]

		robIdx := cu.robIdx
		fp := cu.fetchPoint.fetch(k, &tallies[li].fT, block, fcl).robStall(rg.robCommit[robIdx], k.feDepth)
		dispatchAt := fp.cycle + k.feDepth

		ready := readyAt(rr, dispatchAt, s1, s2)
		issueAt := ready
		if s := rg.slot(ready); ready < rg.clearedTo && rg.fits(*s, pm) {
			*s += pm & sumBytes
		} else {
			issueAt = rg.takeLater(pm, ready, dispatchAt)
		}
		completeAt := issueAt + k.latTab[lcl]
		if dst >= 0 {
			rr[dst] = completeAt
		}

		cu.fetchPoint = fp
		cu.commit(k, robIdx, completeAt)
	}
}

// sweepControl steps every lane through one conditional branch or
// unconditional jump: fetch, prediction (with override bubbles), the
// predicted-taken BTB redirect, issue, resolution, commit. An unclocked
// lane reads a branch's prediction from its slow column at the branch's
// ordinal and overrides where its quick column disagrees; a clocked lane
// first steps this one branch into its own column, at its fetch cycle. A
// jump is the branch predicted taken that is always taken: it has no
// prediction stage, never mispredicts, and counts toward neither
// overrides nor measured branches.
//
// TestFusedTimingAllocs pins it allocation-free.
func (f *fusedRun) sweepControl(i int, measured bool) {
	consts := f.consts
	nLanes := len(consts)
	cursors := f.cursors[:nLanes]
	tallies := f.tallies[:nLanes]
	orgs := f.orgs[:nLanes]
	cols := f.cols
	btbs := f.btbs[:nLanes]
	regs := f.regs[:nLanes]
	inst := &f.batch[i]
	pc := inst.PC
	block := f.blocks[i]
	pm := uint32(0xff) << (8 * f.pcls[i]) // the port's byte in a slot word
	lcl := f.lcls[i]
	fcl := f.fcls[i]
	bi := f.bord[i]
	s1, s2, dst := inst.Src1, inst.Src2, inst.Dst
	jump := inst.Kind == trace.Jump
	taken := jump || inst.Taken
	measured = measured && !jump

	for li := 0; li < nLanes; li++ {
		k := &consts[li]
		cu := &cursors[li]
		rg := &cu.laneRings
		rr := &regs[li]
		tl := &tallies[li]

		robIdx := cu.robIdx
		fp := cu.fetchPoint.fetch(k, &tl.fT, block, fcl).robStall(rg.robCommit[robIdx], k.feDepth)
		fetchAt := fp.cycle
		dispatchAt := fetchAt + k.feDepth

		// --- Branch prediction at fetch ---
		predictedTaken := true
		if !jump {
			org := &orgs[li]
			var overrode bool
			if org.clocked {
				lp := &f.own[org.slow]
				f.fetchAt[0] = fetchAt
				org.step(f.bpcs[bi:bi+1], f.btakens[bi:bi+1], f.fetchAt[:], lp.taken[bi:bi+1], lp.overrode[bi:bi+1])
				predictedTaken, overrode = lp.taken[bi], lp.overrode[bi]
			} else {
				predictedTaken = cols[org.slow][bi]
				overrode = cols[org.quick][bi] != predictedTaken
			}
			if org.over != nil {
				tl.overrides.Add(overrode)
				if overrode {
					fp = fp.advanceTo(fetchAt + 1 + org.bubble)
				}
			}
		}

		// Taken control flow: BTB target or decode redirect.
		if predictedTaken && taken {
			b := btbs[li]
			_, hit := b.Lookup(pc)
			tl.btbMisses.Add(!hit)
			if hit {
				fp.cycle++ // taken-branch fetch break
				fp.used = 0
				fp.lastBlock = 0
			} else {
				fp = fp.advanceTo(fetchAt + 1 + k.btbPenalty)
			}
			b.Insert(pc, inst.Target)
		}

		ready := readyAt(rr, dispatchAt, s1, s2)
		issueAt := ready
		if s := rg.slot(ready); ready < rg.clearedTo && rg.fits(*s, pm) {
			*s += pm & sumBytes
		} else {
			issueAt = rg.takeLater(pm, ready, dispatchAt)
		}
		completeAt := issueAt + k.latTab[lcl]
		if dst >= 0 {
			rr[dst] = completeAt
		}

		// --- Branch resolution ---
		miss := predictedTaken != taken
		if measured {
			tl.measBranches.Add(miss)
		}
		if miss {
			fp = fp.advanceTo(completeAt + 1 + k.recovery)
		}

		cu.fetchPoint = fp
		cu.commit(k, robIdx, completeAt)
	}
}

// finish assembles the per-lane Results, index-aligned with the lanes. It
// folds the outcome-class histograms into the access/miss ratios live
// caches would have counted: the same levels, the same zero-total rule.
func (f *fusedRun) finish(workload string) []Result {
	out := make([]Result, len(f.cursors))
	for li := range out {
		org := &f.orgs[li]
		cu := &f.cursors[li]
		tl := &f.tallies[li]
		r := Result{
			Workload:         workload,
			Predictor:        org.pred.Name(),
			Insts:            f.insts - f.warmupInsts,
			Cycles:           cu.lastCommit - tl.warmupCycle,
			Branches:         tl.measBranches.Total,
			Mispredicts:      tl.measBranches.Events,
			BTBMissRate:      tl.btbMisses.Value(),
			FetchStallCycles: cu.stall,
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
