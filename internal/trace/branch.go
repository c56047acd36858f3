package trace

// Branch-indexed batch replay: the fast path for the accuracy simulator.
//
// Accuracy experiments only look at conditional branches — roughly one
// instruction in five to eight in the synthetic SPECint streams — yet the
// Source protocol reconstructs a full Inst for every ALU, load and store in
// between. A Recording already stores the stream as struct-of-arrays, so it
// can precompute, at record time, the positions of the branches inside each
// chunk; replaying then jumps branch-to-branch and fills whole batches of
// BranchRec with zero per-instruction work. The functional simulator
// (internal/funcsim) detects BranchSource and switches to a batched inner
// loop that reconstructs instruction counts, warm-up boundaries and the
// fetch-cycle clock from InstIndex alone — bit-identical to draining the
// full stream, which the equivalence tests in internal/funcsim enforce.

// BranchRec is one conditional branch of a stream, positioned by the index
// of the instruction within the stream (0-based). InstIndex is all the
// accuracy simulator needs to reconstruct everything the skipped
// instructions contributed: the instruction count, the warm-up boundary and
// the approximate fetch cycle for CycleAware predictors.
type BranchRec struct {
	// InstIndex is the 0-based position of the branch in the instruction
	// stream.
	InstIndex int64
	// PC is the branch's word-aligned address.
	PC uint64
	// Taken is the resolved direction.
	Taken bool
}

// BranchSource is the batch fast-path protocol: a stream that can serve its
// conditional branches directly, in stream order, without materializing the
// instructions in between. Recording replay cursors implement it from the
// precomputed branch index; any other Source is adapted by FilterBranches.
// Consumers use either the Source protocol or the BranchSource protocol on
// one stream, never both.
type BranchSource interface {
	// NextBranches fills dst with the next conditional branches of the
	// stream in order and returns how many records were written; 0 means
	// end of stream (and is only returned with an empty dst on a stream
	// that has records left).
	NextBranches(dst []BranchRec) int
	// InstsScanned reports how many leading instructions of the stream
	// the source has scanned past so far. Once NextBranches has returned
	// 0 it equals the total stream length — the number the instruction
	// protocol would have counted draining the stream one Inst at a time.
	InstsScanned() int64
}

// branchBatch is the batch size drivers are expected to use; exported to
// funcsim via BatchLen so the two layers agree.
const branchBatch = 256

// BatchLen is the recommended NextBranches batch length: large enough to
// amortize the call, small enough to stay resident in L1.
const BatchLen = branchBatch

// Branches returns the number of recorded conditional branches, from the
// branch index (no stream scan).
func (r *Recording) Branches() int64 {
	var n int64
	for i := range r.chunks {
		n += int64(len(r.chunks[i].br))
	}
	return n
}

// BranchStats returns the recorded conditional-branch and taken counts via
// the branch index, touching only the indexed meta bytes.
func (r *Recording) BranchStats() (branches, taken int64) {
	for i := range r.chunks {
		c := &r.chunks[i]
		branches += int64(len(c.br))
		for _, pos := range c.br {
			if c.meta[pos]&metaTaken != 0 {
				taken++
			}
		}
	}
	return branches, taken
}

// ReplayBranches returns a cursor over the recording's branch index,
// positioned at the first branch. Cursors are independent; each is
// single-goroutine, but any number may replay one recording concurrently.
func (r *Recording) ReplayBranches() *BranchCursor {
	return &BranchCursor{rec: r}
}

// BranchCursor streams a Recording's conditional branches via the
// precomputed per-chunk branch index, implementing BranchSource.
type BranchCursor struct {
	rec     *Recording
	ci      int   // current chunk
	bi      int   // next entry in the chunk's branch index
	scanned int64 // instructions scanned past (see InstsScanned)
}

// NextBranches implements BranchSource: it jumps branch-to-branch through
// the index, never touching the instructions in between.
//
// TestCursorAllocs pins it allocation-free, and TestRunManyAllocs the
// accuracy engine's drive over it.
func (c *BranchCursor) NextBranches(dst []BranchRec) int {
	n := 0
	for n < len(dst) {
		if c.ci >= len(c.rec.chunks) {
			c.scanned = c.rec.insts
			break
		}
		ch := &c.rec.chunks[c.ci]
		base := int64(c.ci) * chunkLen
		br := ch.br
		for n < len(dst) && c.bi < len(br) {
			pos := br[c.bi]
			dst[n] = BranchRec{
				InstIndex: base + int64(pos),
				PC:        ch.pc[pos],
				Taken:     ch.meta[pos]&metaTaken != 0,
			}
			c.scanned = base + int64(pos) + 1
			n++
			c.bi++
		}
		if c.bi == len(br) {
			c.ci++
			c.bi = 0
		}
	}
	return n
}

// InstsScanned implements BranchSource.
func (c *BranchCursor) InstsScanned() int64 { return c.scanned }

// Name identifies the recorded workload.
func (c *BranchCursor) Name() string { return c.rec.name }

// Reset rewinds the cursor to the first branch.
func (c *BranchCursor) Reset() { c.ci, c.bi, c.scanned = 0, 0, 0 }

// BranchFilter adapts a plain Source to BranchSource: it drains the stream
// one Next call at a time and passes on only the conditional branches,
// positioned by their stream index. It is how a live generator, or any
// Source without a branch index, reaches the accuracy simulator.
type BranchFilter struct {
	src     Source
	scanned int64
	inst    Inst
}

// FilterBranches returns a BranchFilter over src, positioned at src's
// current instruction.
func FilterBranches(src Source) *BranchFilter { return &BranchFilter{src: src} }

// NextBranches implements BranchSource.
func (f *BranchFilter) NextBranches(dst []BranchRec) int {
	n := 0
	for n < len(dst) && f.src.Next(&f.inst) {
		f.scanned++
		if f.inst.Kind == CondBranch {
			dst[n] = BranchRec{InstIndex: f.scanned - 1, PC: f.inst.PC, Taken: f.inst.Taken}
			n++
		}
	}
	return n
}

// InstsScanned implements BranchSource.
func (f *BranchFilter) InstsScanned() int64 { return f.scanned }

// Name identifies the filtered workload.
func (f *BranchFilter) Name() string { return f.src.Name() }
