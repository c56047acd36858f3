package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
)

// A Recording is a materialized instruction stream: the record half of the
// record/replay trace layer. cmd/tracegen records streams to BPTRACE1
// files and replays them, and tests replay a recording as the reference a
// live generator must match; the experiment grid streams straight off the
// generator instead, one pass per benchmark.
//
// Storage is struct-of-arrays, split into fixed-size chunks so recording
// allocates incrementally (no doubling spikes, bounded slack) and so the
// file codec (codec.go) can frame the stream. Two columns are sparse: Addr
// is stored only for instructions that carry one (loads/stores) and Target
// only for control transfers, cutting memory roughly in half versus []Inst.
// Replay reconstructs every Inst field bit-for-bit, which the equivalence
// tests in internal/workload enforce against live generation.
//
// A Recording may be shared by pointer across goroutines once its
// constructor returns, and cursors replay it with no synchronization;
// the frozen analyzer proves nothing writes it after publication.
//
//bplint:frozen
type Recording struct {
	name   string
	chunks []chunk
	insts  int64

	// dig caches the recording's content identity, computed lazily (the
	// sanctioned write-once late publication) because most in-process
	// replays never need it — only the persistent result store keys on it.
	dig digestCell
}

// digestCell pairs the lazily-computed digest with its sync.Once in a
// struct of its own, so the oncepublish analyzer sees exactly one payload
// field behind the Once — the Recording's other fields are frozen at
// construction, not Once-published.
type digestCell struct {
	once sync.Once
	v    string // published inside once.Do only
}

// chunkLen is the instruction capacity of one chunk. At 64Ki instructions
// a chunk costs at most ~1.5 MB fully populated, so recording grows in
// bounded steps and partial tail chunks waste little.
const chunkLen = 1 << 16

// Per-instruction metadata bits packed alongside the 3-bit Kind.
const (
	metaKindMask  = 0x07
	metaTaken     = 0x08 // CondBranch resolved taken
	metaHasAddr   = 0x10 // instruction carries a nonzero Addr
	metaHasTarget = 0x20 // instruction carries a nonzero Target
)

// chunk is one struct-of-arrays segment of the stream. addr and target are
// positional side arrays: one entry per instruction whose meta byte sets
// the corresponding bit, in stream order. br is the chunk's branch index:
// the within-chunk positions of the conditional branches, built as the
// chunk is appended to — by Record and by the codec's read path alike, so
// a decoded recording carries an identical index — and consumed by the
// batch replay fast path (branch.go).
//
//bplint:frozen
type chunk struct {
	meta   []uint8
	src1   []int8
	src2   []int8
	dst    []int8
	pc     []uint64
	addr   []uint64
	target []uint64
	br     []int32
}

// newChunk returns an empty chunk whose dense columns hold chunkLen
// instructions without growing.
func newChunk() chunk {
	return chunk{
		meta: make([]uint8, 0, chunkLen),
		src1: make([]int8, 0, chunkLen),
		src2: make([]int8, 0, chunkLen),
		dst:  make([]int8, 0, chunkLen),
		pc:   make([]uint64, 0, chunkLen),
	}
}

// appendInsts appends a batch of instructions column by column. The dense
// columns take one entry per instruction. The sparse columns (addr,
// target) and the branch index are filled without a branch per
// instruction: every instruction's value is written at the column's next
// free slot, and the slot is kept only when the meta byte says it exists.
// Record and the codec's read path both append through here, so a decoded
// recording carries identical columns and an identical branch index.
func (c *chunk) appendInsts(insts []Inst) {
	k := len(insts)
	n0 := len(c.meta)
	c.meta = slices.Grow(c.meta, k)[:n0+k]
	c.src1 = slices.Grow(c.src1, k)[:n0+k]
	c.src2 = slices.Grow(c.src2, k)[:n0+k]
	c.dst = slices.Grow(c.dst, k)[:n0+k]
	c.pc = slices.Grow(c.pc, k)[:n0+k]
	meta, src1, src2, dst, pc := c.meta[n0:], c.src1[n0:], c.src2[n0:], c.dst[n0:], c.pc[n0:]
	for i := range insts {
		in := &insts[i]
		meta[i] = uint8(in.Kind)&metaKindMask | metaTaken*b2u8(in.Taken) |
			metaHasAddr*b2u8(in.Addr != 0) | metaHasTarget*b2u8(in.Target != 0)
		src1[i] = in.Src1
		src2[i] = in.Src2
		dst[i] = in.Dst
		pc[i] = in.PC
	}

	na, nt, nb := len(c.addr), len(c.target), len(c.br)
	addr := slices.Grow(c.addr, k)[:na+k]
	target := slices.Grow(c.target, k)[:nt+k]
	br := slices.Grow(c.br, k)[:nb+k]
	for i := range insts {
		in := &insts[i]
		addr[na] = in.Addr
		na += int(b2u8(in.Addr != 0))
		target[nt] = in.Target
		nt += int(b2u8(in.Target != 0))
		br[nb] = int32(n0 + i)
		nb += int(b2u8(in.Kind == CondBranch))
	}
	c.addr, c.target, c.br = addr[:na], target[:nt], br[:nb]
}

// b2u8 converts a bool to 0 or 1 without a branch.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Record drains up to maxInsts instructions from src into a new Recording.
// It fills a batch of InstBatchLen instructions at a time and appends each
// batch column by column, calling src.Next exactly as often as an
// instruction-at-a-time drain would. The recording is immutable
// afterwards, so any number of Replay cursors may read it concurrently.
func Record(src Source, maxInsts int64) *Recording {
	rec := &Recording{name: src.Name()}
	var batch [InstBatchLen]Inst
	for rec.insts < maxInsts {
		want := int(min(maxInsts-rec.insts, InstBatchLen))
		n := 0
		for n < want && src.Next(&batch[n]) {
			n++
		}
		rec.appendInsts(batch[:n])
		if n < want {
			break
		}
	}
	return rec
}

// appendInsts appends insts to the recording, opening a new chunk whenever
// the last one is full.
func (r *Recording) appendInsts(insts []Inst) {
	for len(insts) > 0 {
		if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1].meta) == chunkLen {
			r.chunks = append(r.chunks, newChunk())
		}
		k := min(len(insts), chunkLen-len(r.chunks[len(r.chunks)-1].meta))
		r.chunks[len(r.chunks)-1].appendInsts(insts[:k])
		r.insts += int64(k)
		insts = insts[k:]
	}
}

// Name returns the recorded workload's name.
func (r *Recording) Name() string { return r.name }

// Len returns the number of recorded instructions.
func (r *Recording) Len() int64 { return r.insts }

// SizeBytes returns the in-memory footprint of the recorded columns.
func (r *Recording) SizeBytes() int64 {
	var n int64
	for i := range r.chunks {
		c := &r.chunks[i]
		n += int64(len(c.meta)) + int64(len(c.src1)) + int64(len(c.src2)) +
			int64(len(c.dst)) + 8*int64(len(c.pc)) +
			8*int64(len(c.addr)) + 8*int64(len(c.target)) +
			4*int64(len(c.br))
	}
	return n
}

// Digest returns the recording's stable content identity: the hex SHA-256
// of its BPTRACE1 byte stream (codec.go). Because the codec is a pure
// function of the instruction stream, the digest survives process
// boundaries and storage-layout changes alike — a recording decoded from a
// trace file, or rebuilt from the same workload seed, digests identically
// (TestDigestStableAcrossCodec). TestProfileDigestsPinned pins every
// workload profile's stream by it. Computed once per recording and cached;
// safe for concurrent callers.
func (r *Recording) Digest() string {
	r.dig.once.Do(func() {
		h := sha256.New()
		// sha256's Write never fails, so WriteTo cannot return an error
		// here.
		r.WriteTo(h)
		r.dig.v = hex.EncodeToString(h.Sum(nil))
	})
	return r.dig.v
}

// Replay returns a new cursor positioned at the start of the recording.
// Cursors are independent; each is single-goroutine, but any number may
// replay one recording concurrently.
func (r *Recording) Replay() *Cursor { return &Cursor{rec: r, br: BranchCursor{rec: r}} }

// Cursor streams a Recording back: as a Source, reconstructing every Inst
// exactly, or as a BranchSource, batch-serving only the conditional
// branches through the recording's branch index. A consumer commits to one
// protocol per cursor — the two maintain independent positions, so mixing
// them would silently skip or repeat instructions; Cursor panics instead.
type Cursor struct {
	rec    *Recording
	ci     int // current chunk
	idx    int // next instruction within chunk
	addrI  int // next sparse addr within chunk
	targI  int // next sparse target within chunk
	served int64
	br     BranchCursor // branch-protocol position, used instead of the above
}

// Next implements Source, reconstructing the recorded instruction exactly.
//
// TestCursorAllocs pins it allocation-free.
func (c *Cursor) Next(inst *Inst) bool {
	if c.br.scanned != 0 || c.br.bi != 0 || c.br.ci != 0 {
		panic("trace: replay cursor used with both Next and NextBranches")
	}
	for {
		if c.ci >= len(c.rec.chunks) {
			return false
		}
		ch := &c.rec.chunks[c.ci]
		if c.idx < len(ch.meta) {
			m := ch.meta[c.idx]
			inst.Kind = Kind(m & metaKindMask)
			inst.Taken = m&metaTaken != 0
			inst.PC = ch.pc[c.idx]
			inst.Src1 = ch.src1[c.idx]
			inst.Src2 = ch.src2[c.idx]
			inst.Dst = ch.dst[c.idx]
			if m&metaHasAddr != 0 {
				inst.Addr = ch.addr[c.addrI]
				c.addrI++
			} else {
				inst.Addr = 0
			}
			if m&metaHasTarget != 0 {
				inst.Target = ch.target[c.targI]
				c.targI++
			} else {
				inst.Target = 0
			}
			c.idx++
			c.served++
			return true
		}
		c.ci++
		c.idx, c.addrI, c.targI = 0, 0, 0
	}
}

// Name implements Source.
func (c *Cursor) Name() string { return c.rec.name }

// NextInsts implements InstSource: it reconstructs the next len(dst)
// instructions straight from the recording's struct-of-arrays chunks, one
// chunk segment at a time, so consumers pay one call (and one set of bounds
// checks on the hoisted columns) per batch instead of per instruction. It
// shares the instruction protocol's position with Next — the two may be
// interleaved — but, like Next, it must not be mixed with the branch
// protocol on one cursor.
//
// TestCursorAllocs pins it allocation-free, and TestFusedTimingAllocs the
// timing engine's drive over it.
func (c *Cursor) NextInsts(dst []Inst) int {
	if c.br.scanned != 0 || c.br.bi != 0 || c.br.ci != 0 {
		panic("trace: replay cursor used with both NextInsts and NextBranches")
	}
	n := 0
	for n < len(dst) {
		if c.ci >= len(c.rec.chunks) {
			break
		}
		ch := &c.rec.chunks[c.ci]
		if c.idx >= len(ch.meta) {
			c.ci++
			c.idx, c.addrI, c.targI = 0, 0, 0
			continue
		}
		k := len(ch.meta) - c.idx
		if k > len(dst)-n {
			k = len(dst) - n
		}
		meta := ch.meta[c.idx : c.idx+k]
		pc := ch.pc[c.idx : c.idx+k]
		src1 := ch.src1[c.idx : c.idx+k]
		src2 := ch.src2[c.idx : c.idx+k]
		dstReg := ch.dst[c.idx : c.idx+k]
		for j := 0; j < k; j++ {
			m := meta[j]
			out := &dst[n+j]
			out.Kind = Kind(m & metaKindMask)
			out.Taken = m&metaTaken != 0
			out.PC = pc[j]
			out.Src1 = src1[j]
			out.Src2 = src2[j]
			out.Dst = dstReg[j]
			if m&metaHasAddr != 0 {
				out.Addr = ch.addr[c.addrI]
				c.addrI++
			} else {
				out.Addr = 0
			}
			if m&metaHasTarget != 0 {
				out.Target = ch.target[c.targI]
				c.targI++
			} else {
				out.Target = 0
			}
		}
		c.idx += k
		n += k
	}
	c.served += int64(n)
	return n
}

// Recording returns the recording this cursor replays — consumers that
// precompute per-recording side data (the timing simulator's memory-latency
// sidecar) use it to verify the stream identity before trusting the data.
func (c *Cursor) Recording() *Recording { return c.rec }

// Pos returns the number of instructions served so far under the
// instruction protocol (Next/NextInsts).
func (c *Cursor) Pos() int64 { return c.served }

// NextBranches implements BranchSource via the recording's branch index
// (see BranchCursor). It must not be mixed with Next on one cursor.
//
// TestCursorAllocs pins it allocation-free.
func (c *Cursor) NextBranches(dst []BranchRec) int {
	if c.served != 0 {
		panic("trace: replay cursor used with both Next and NextBranches")
	}
	return c.br.NextBranches(dst)
}

// InstsScanned implements BranchSource.
func (c *Cursor) InstsScanned() int64 { return c.br.InstsScanned() }

// Reset rewinds the cursor to the start of the recording under both
// protocols, allowing a fresh replay without a new allocation.
func (c *Cursor) Reset() {
	c.ci, c.idx, c.addrI, c.targI, c.served = 0, 0, 0, 0, 0
	c.br.Reset()
}
