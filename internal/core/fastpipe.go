package core

import (
	"branchsim/internal/history"
)

// rowShift is the history offset of the prefetched row window (see
// FastPipe.index): row bits come from positions [rowShift, rowShift+rowBits)
// of the current speculative history.
const rowShift = 2

// DefaultBufferBits is the default width of the late-selected portion of the
// PHT index: the lower bits of the branch address are XORed with the newest
// global history bits to pick an entry out of the prefetched PHT buffer in
// the final predictor pipeline stage (paper §3.1: "the lower nine bits of
// its address are exclusive-ored with the low bits of the global history
// register ... forms an index into the PHT buffer").
const DefaultBufferBits = 9

// FastPipe is the reusable core of the gshare.fast organization (§3): the
// one copy of its speculative global history, fetch clock, per-cycle
// history snapshots and split-index computation, shared by GShareFast and
// by the other predictors reorganized the same way — the direction the
// paper's conclusion points to ("we are currently studying ways to
// reorganize other predictors to take advantage of the same ideas", §5).
// The index is split in two:
//
//   - The upper (row) bits come from the speculative global history as it
//     stood when the multi-cycle table access began, Latency cycles before
//     the prediction is needed. They select a contiguous line of candidate
//     counters (the PHT buffer) without ever touching the branch address,
//     so the access can start long before the branch is fetched.
//   - The lower BufferBits bits are computed in the single final stage:
//     low branch-PC bits XORed with the newest speculative history bits,
//     including the New History bits generated while the access was in
//     flight (tracked in hardware by the Branch Present / New History
//     latches of Figure 4, and here by per-cycle history snapshots).
//
// A predictor built on FastPipe has an effective prediction latency of one
// cycle regardless of its table size; its tables must be indexable by
// Index(pc) — i.e. by global history plus low PC bits only. Predictors
// embed it by value, so the index reads the history with no pointer hop.
type FastPipe struct {
	ghr     history.Global
	idxBits uint
	bufBits uint
	latency int

	// Fetch-cycle model. snaps records the history value and cumulative
	// push count at the end of each cycle in which history changed; the
	// list models the per-stage history latches, whose SRAM cost is the
	// per-stage buffer checkpoints charged by BufferStateBytes. Until
	// OnCycle first announces a cycle, the pipe clocks itself one cycle
	// per Push (or per pushBlock), so the row address is still latency
	// cycles stale.
	cycle         uint64
	externalClock bool
	pushes        uint64
	snaps         []histSnap
}

type histSnap struct {
	cycle  uint64
	pushes uint64 // cumulative history pushes through this cycle
	hist   uint64
}

// NewFastPipe returns the pipelined index machinery for a table of
// 2^idxBits entries read in latency cycles, with the maximum history the
// table supports, log2 of its entries (§4.1.4). bufBits of 0 selects the
// default split: the prefetched line grows with the array, because an
// SRAM's natural row width scales with the square root of its capacity, so
// larger tables hand the final stage more late-selected (fresh) index bits
// — never fewer than DefaultBufferBits, the paper's 9-bit buffer index at
// the ~256K-entry design point of Figure 4.
func NewFastPipe(idxBits uint, latency int, bufBits uint) FastPipe {
	if idxBits == 0 || idxBits > 32 {
		panic("core: FastPipe index bits out of range")
	}
	if latency < 1 {
		panic("core: FastPipe latency must be >= 1")
	}
	histBits := idxBits
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	if bufBits == 0 {
		bufBits = (idxBits + 1) / 2
		if bufBits < DefaultBufferBits {
			bufBits = DefaultBufferBits
		}
	}
	if bufBits > idxBits {
		bufBits = idxBits
	}
	return FastPipe{
		ghr:     *history.NewGlobal(histBits),
		idxBits: idxBits,
		bufBits: bufBits,
		latency: latency,
		snaps:   []histSnap{{}},
	}
}

// OnCycle implements predictor.CycleAware: it advances the fetch clock.
func (f *FastPipe) OnCycle(cycle uint64) {
	f.externalClock = true
	if cycle > f.cycle {
		f.cycle = cycle
	}
}

// clockAt announces branch i's fetch cycle from a StepBatch cycle column;
// a nil column announces nothing.
func (f *FastPipe) clockAt(cycles []uint64, i int) {
	if cycles != nil {
		f.OnCycle(cycles[i])
	}
}

// histAt returns the speculative global history and cumulative push count
// as of the end of cycle c, i.e. what the hardware had latched when an
// access launched in cycle c+1.
func (f *FastPipe) histAt(c uint64) (hist, pushes uint64) {
	// Scan newest-to-oldest; the snapshot list is short (pruned by record).
	for i := len(f.snaps) - 1; i >= 0; i-- {
		if f.snaps[i].cycle <= c {
			return f.snaps[i].hist, f.snaps[i].pushes
		}
	}
	return f.snaps[0].hist, f.snaps[0].pushes
}

// Index computes the effective table index for a branch predicted in the
// current cycle.
func (f *FastPipe) Index(pc uint64) int { return f.index(pc, f.ghr.Value()) }

// index computes the table index of a branch whose newest speculative
// history is cur. The low bufBits bits are fresh: cur XOR low branch-address
// bits, computed in the final single-cycle stage. The row bits come from
// history above position bufBits; the prefetched row stays aligned with the
// bits that arrived during the multi-cycle access (the New History Bit
// forwarding of Figure 4) as long as at most bufBits branches were
// predicted while the access was in flight. In heavier bursts the aligned
// row could not have been prefetched, and the entry actually resident is
// the one addressed with the history as of the cycle the access began — a
// stale row, the residual accuracy cost of the pipelined organization.
func (f *FastPipe) index(pc, cur uint64) int {
	lowMask := uint64(1)<<f.bufBits - 1
	low := ((pc >> 2) ^ cur) & lowMask
	if f.idxBits == f.bufBits {
		return int(low)
	}
	var rowCycle uint64
	if f.cycle > uint64(f.latency) {
		rowCycle = f.cycle - uint64(f.latency)
	}
	rowMask := uint64(1)<<(f.idxBits-f.bufBits) - 1
	oldHist, oldPushes := f.histAt(rowCycle)
	var row uint64
	if f.pushes-oldPushes <= uint64(f.bufBits) {
		// The row the access fetched is addressed by history bits a
		// couple of positions up from the newest — the typical number
		// of branches in flight during the read — and the New History
		// Bit forwarding keeps that alignment exact whenever no more new
		// bits arrived than the buffer can late-select. Recent history
		// carries the most correlation, so the row window deliberately
		// overlaps the fresh low window.
		row = (cur >> rowShift) & rowMask
	} else {
		// Burst: more branches resolved during the access than the
		// buffer covers; the resident row is the one addressed when the
		// access began.
		row = oldHist & rowMask
	}
	return int(row<<f.bufBits | low)
}

// blockIndex is Index for a branch of a fetch block predicted in one cycle
// (§3.3.1) after the block's earlier branches, whose predictions are ahead:
// the block shares the block-start row and clock, and each prediction is
// chained into the history the next branch's fresh bits read — the New
// History Bit forwarding applied within a block.
func (f *FastPipe) blockIndex(pc uint64, ahead []bool) int {
	h := f.ghr
	for _, p := range ahead {
		h.Push(p)
	}
	return f.index(pc, h.Value())
}

// Push records one resolved (speculatively predicted) outcome into the
// history and, without an external clock, ends the cycle.
func (f *FastPipe) Push(taken bool) {
	f.ghr.Push(taken)
	f.pushes++
	f.record()
}

// pushBlock records the outcomes of a block fetched in one cycle, in order,
// and, without an external clock, ends the cycle once for the whole block.
func (f *FastPipe) pushBlock(takens []bool) {
	for _, t := range takens {
		f.ghr.Push(t)
		f.pushes++
	}
	f.record()
}

// record notes that the history register changed during the current cycle,
// prunes snapshots too old to ever be a row address again, and advances a
// self-driven clock.
func (f *FastPipe) record() {
	h := f.ghr.Value()
	if n := len(f.snaps); n > 0 && f.snaps[n-1].cycle == f.cycle {
		f.snaps[n-1].hist = h
		f.snaps[n-1].pushes = f.pushes
	} else {
		f.snaps = append(f.snaps, histSnap{cycle: f.cycle, pushes: f.pushes, hist: h})
		// Keep the newest snapshot at or before cycle-latency plus
		// everything after it; older entries can never be selected.
		if len(f.snaps) > f.latency+2 {
			cut := uint64(0)
			if f.cycle > uint64(f.latency) {
				cut = f.cycle - uint64(f.latency)
			}
			keepFrom := 0
			for i := len(f.snaps) - 1; i >= 0; i-- {
				if f.snaps[i].cycle <= cut {
					keepFrom = i
					break
				}
			}
			if keepFrom > 0 {
				f.snaps = append(f.snaps[:0], f.snaps[keepFrom:]...)
			}
		}
	}
	if !f.externalClock {
		f.cycle++
	}
}

// History returns the current speculative global history value.
func (f *FastPipe) History() uint64 { return f.ghr.Value() }

// HistoryBits returns the global history length.
func (f *FastPipe) HistoryBits() uint { return f.ghr.Len() }

// HistorySizeBytes returns the history register's state size.
func (f *FastPipe) HistorySizeBytes() int { return f.ghr.SizeBytes() }

// BufferBits returns the late-selected index width.
func (f *FastPipe) BufferBits() uint { return f.bufBits }

// Latency returns the hidden table read latency. The *effective*
// prediction latency is always one cycle; this value only sizes the
// pipeline and its buffers.
func (f *FastPipe) Latency() int { return f.latency }

// BufferStateBytes returns the buffer plus per-stage checkpoint state the
// organization adds (§3.2 keeps one buffer copy per pipeline stage).
func (f *FastPipe) BufferStateBytes() int {
	bufferBytes := (1 << f.bufBits) * 2 / 8
	return bufferBytes * (1 + f.latency + 1)
}
