package pipeline

import (
	"branchsim/internal/btb"
	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// refSim is the timing simulator's test-only reference: the scoreboard
// model written the plain way, one instruction per Next call, live caches,
// one struct of scalar state and per-cycle slot rings. Each branch follows
// the predict → update → charge shape of a textbook predictor harness. It
// shares no code with the engine (RunMany) beyond Config and the leaf
// structures (caches, BTB, predictors), so the equivalence suites and
// FuzzEngineVsReference compare two independent implementations.
type refSim struct {
	cfg  Config
	pred predictor.Predictor

	over       *core.Overriding
	cycleAware predictor.CycleAware
	recovery   uint64

	icache, dcache, l2 *cache.Cache
	btb                *btb.BTB

	regReady   [trace.NumRegs]uint64
	robCommit  []uint64 // commit cycle of the ROB's most recent instructions
	robIdx     int
	issueRing  slotRing
	portRings  [numPorts]slotRing
	commitRing slotRing

	fetchCycle     uint64
	fetchUsed      int
	lastFetchBlock uint64 // current I-cache block address + 1 (0 = none)
	lastCommit     uint64
	fetchStall     uint64

	btbMisses    stats.Rate
	overrides    stats.Rate
	measBranches stats.Rate
}

// refRun is the reference's entry point: a fresh refSim of cfg and pred
// replays up to maxInsts instructions of src, excluding the first
// warmupInsts from the measured window, exactly as Run promises to.
func refRun(cfg Config, pred predictor.Predictor, src trace.Source, maxInsts, warmupInsts int64) Result {
	s := &refSim{
		cfg:        cfg,
		pred:       pred,
		icache:     cache.New(cfg.L1I),
		dcache:     cache.New(cfg.L1D),
		l2:         cache.New(cfg.L2),
		btb:        btb.New(cfg.BTBEntries, cfg.BTBWays),
		robCommit:  make([]uint64, cfg.ROBSize),
		issueRing:  newSlotRing(cfg.IssueWidth),
		commitRing: newSlotRing(cfg.CommitWidth),
	}
	s.portRings = [numPorts]slotRing{
		portInt: newSlotRing(cfg.IntPorts),
		portMem: newSlotRing(cfg.MemPorts),
		portMul: newSlotRing(cfg.MulPorts),
		portFP:  newSlotRing(cfg.FPPorts),
	}
	s.over, _ = pred.(*core.Overriding)
	s.cycleAware, _ = pred.(predictor.CycleAware)
	if rc, ok := pred.(predictor.RecoveryCost); ok {
		s.recovery = uint64(rc.RecoveryPenalty())
	}

	var (
		inst        trace.Inst
		insts       int64
		warmupCycle uint64
	)
	for insts < maxInsts && src.Next(&inst) {
		if insts == warmupInsts {
			warmupCycle = s.lastCommit
		}
		insts++
		s.step(&inst, insts > warmupInsts)
	}

	r := Result{
		Workload:         src.Name(),
		Predictor:        pred.Name(),
		Insts:            insts - warmupInsts,
		Cycles:           s.lastCommit - warmupCycle,
		Branches:         s.measBranches.Total,
		Mispredicts:      s.measBranches.Events,
		BTBMissRate:      s.btbMisses.Value(),
		L1IMissRate:      s.icache.MissRate(),
		L1DMissRate:      s.dcache.MissRate(),
		L2MissRate:       s.l2.MissRate(),
		FetchStallCycles: s.fetchStall,
	}
	if s.over != nil {
		r.Overrides = s.overrides.Events
		r.OverrideRate = s.overrides.Value()
	}
	return r
}

// advanceFetch moves the fetch point to at least cycle t, charging the
// skipped cycles as fetch stall.
func (s *refSim) advanceFetch(t uint64) {
	if t > s.fetchCycle {
		s.fetchStall += t - s.fetchCycle
		s.fetchCycle = t
		s.fetchUsed = 0
		s.lastFetchBlock = 0
	}
}

// breakFetch ends the current fetch cycle.
func (s *refSim) breakFetch() {
	s.fetchCycle++
	s.fetchUsed = 0
	s.lastFetchBlock = 0
}

// memLatency walks the hierarchy for one access: first level, then L2,
// then memory, returning the level's latency.
func (s *refSim) memLatency(l1 *cache.Cache, l1Lat int, addr uint64) uint64 {
	switch {
	case l1.Access(addr):
		return uint64(l1Lat)
	case s.l2.Access(addr):
		return uint64(s.cfg.L2Latency)
	default:
		return uint64(s.cfg.MemLatency)
	}
}

// step advances the scoreboard by one instruction: fetch, predict, update,
// charge the redirect, issue, resolve, commit.
func (s *refSim) step(inst *trace.Inst, measured bool) {
	feDepth := uint64(s.cfg.frontEndDepth())

	// --- Fetch ---
	if s.fetchUsed >= s.cfg.FetchWidth {
		s.breakFetch()
	}
	block := inst.PC&^uint64(s.cfg.L1I.LineBytes-1) + 1
	if block != s.lastFetchBlock {
		if s.lastFetchBlock != 0 {
			s.breakFetch() // crossing into a new block mid-cycle
		}
		if lat := s.memLatency(s.icache, 0, inst.PC); lat > 0 {
			s.advanceFetch(s.fetchCycle + lat)
		}
		s.lastFetchBlock = block
	}
	fetchAt := s.fetchCycle
	s.fetchUsed++

	// The ROB bounds instructions in flight: fetch backs up until the
	// oldest entry commits.
	oldestCommit := s.robCommit[s.robIdx]
	dispatchAt := fetchAt + feDepth
	if dispatchAt <= oldestCommit {
		if oldestCommit+1 > feDepth {
			s.advanceFetch(oldestCommit + 1 - feDepth)
		}
		fetchAt = s.fetchCycle
		dispatchAt = fetchAt + feDepth
	}

	// --- Predict, update, charge the organization's bubble ---
	isBranch := inst.Kind == trace.CondBranch
	var predictedTaken bool
	if isBranch {
		if s.cycleAware != nil {
			s.cycleAware.OnCycle(fetchAt)
		}
		predictedTaken = s.pred.Predict(inst.PC)
		s.pred.Update(inst.PC, inst.Taken)
		if s.over != nil {
			overrode, bubble := s.over.LastOverrode()
			s.overrides.Add(overrode)
			if overrode {
				s.advanceFetch(fetchAt + 1 + uint64(bubble))
			}
		}
	}

	// Taken control flow needs a BTB target.
	if (isBranch && predictedTaken && inst.Taken) || inst.Kind == trace.Jump {
		_, hit := s.btb.Lookup(inst.PC)
		s.btbMisses.Add(!hit)
		if hit {
			s.breakFetch()
		} else {
			s.advanceFetch(fetchAt + 1 + uint64(s.cfg.BTBMissPenalty))
		}
		s.btb.Insert(inst.PC, inst.Target)
	}

	// --- Issue ---
	ready := dispatchAt
	for _, src := range [2]int8{inst.Src1, inst.Src2} {
		if src >= 0 && s.regReady[src] > ready {
			ready = s.regReady[src]
		}
	}
	var port int
	var execLat uint64
	switch inst.Kind {
	case trace.Load:
		port, execLat = portMem, s.memLatency(s.dcache, s.cfg.L1DLatency, inst.Addr)
	case trace.Store:
		// Stores retire from the store queue; the line is still
		// allocated for later loads.
		port, execLat = portMem, 1
		s.dcache.Access(inst.Addr)
	case trace.Mul:
		port, execLat = portMul, uint64(s.cfg.MulLatency)
	case trace.FPU:
		port, execLat = portFP, uint64(s.cfg.FPLatency)
	case trace.ALU, trace.CondBranch, trace.Jump:
		port, execLat = portInt, 1
	default:
		panic("pipeline: unhandled instruction kind")
	}
	issueAt := ready
	for {
		t := s.portRings[port].peekFree(s.issueRing.peekFree(issueAt))
		if t == issueAt {
			break
		}
		issueAt = t
	}
	s.issueRing.take(issueAt)
	s.portRings[port].take(issueAt)
	completeAt := issueAt + execLat
	if inst.Dst >= 0 {
		s.regReady[inst.Dst] = completeAt
	}

	// --- Resolve ---
	if isBranch {
		miss := predictedTaken != inst.Taken
		if measured {
			s.measBranches.Add(miss)
		}
		if miss {
			s.advanceFetch(completeAt + 1 + s.recovery)
		}
	}

	// --- Commit, in order ---
	commitAt := completeAt + 1
	if commitAt < s.lastCommit {
		commitAt = s.lastCommit
	}
	commitAt = s.commitRing.take(commitAt)
	if commitAt > s.lastCommit {
		s.lastCommit = commitAt
	}
	s.robCommit[s.robIdx] = commitAt
	s.robIdx = (s.robIdx + 1) % s.cfg.ROBSize
}

// slotRing counts per-cycle resource usage over a sliding window of
// ringSize cycles: a slot whose stored cycle differs from the probed one is
// stale and reads as empty.
type slotRing struct {
	cycle []uint64
	count []uint16
	limit uint16
}

func newSlotRing(limit int) slotRing {
	return slotRing{
		cycle: make([]uint64, ringSize),
		count: make([]uint16, ringSize),
		limit: uint16(limit),
	}
}

// take reserves one slot at or after cycle t and returns the cycle used.
func (r *slotRing) take(t uint64) uint64 {
	for {
		i := t & (ringSize - 1)
		if r.cycle[i] != t {
			r.cycle[i] = t
			r.count[i] = 1
			return t
		}
		if r.count[i] < r.limit {
			r.count[i]++
			return t
		}
		t++
	}
}

// peekFree reports the first cycle at or after t with a free slot, without
// reserving it.
func (r *slotRing) peekFree(t uint64) uint64 {
	for {
		i := t & (ringSize - 1)
		if r.cycle[i] != t || r.count[i] < r.limit {
			return t
		}
		t++
	}
}
