package pipeline

import (
	"branchsim/internal/cache"
	"branchsim/internal/trace"
)

// MemGeometry is the part of a Config the memory-latency sidecar depends
// on: the three cache geometries. Latencies are deliberately excluded — the
// sidecar records hierarchy *outcomes* (which level served each access),
// and the Sim charges its own config's latencies for them — so one sidecar
// serves every latency variant of a geometry. It is comparable and is the
// memoization key component in internal/tracestore.
type MemGeometry struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
}

// MemGeometryOf extracts the sidecar-relevant geometry from a machine
// config.
func MemGeometryOf(cfg Config) MemGeometry {
	return MemGeometry{L1I: cfg.L1I, L1D: cfg.L1D, L2: cfg.L2}
}

// Per-instruction access classes, two 2-bit fields packed in one byte.
// The fetch field describes the instruction's I-cache block access; the mem
// field describes a load's or store's D-cache access.
const (
	sideFetchShift = 0
	sideFetchMask  = 0x03 << sideFetchShift
	sideMemShift   = 2
	sideMemMask    = 0x03 << sideMemShift
)

// Fetch classes. sideFetchNone marks an instruction in the same
// I-cache block as its predecessor: the live model accesses the
// cache for it only after a redirect cleared the fetch state, and
// that access is a guaranteed hit (see BuildMemSidecar).
//
//bplint:enum sideFetchClass
const (
	sideFetchNone = 0
	sideFetchL1   = 1 // new block, L1I hit
	sideFetchL2   = 2 // new block, L1I miss, L2 hit
	sideFetchMem  = 3 // new block, both miss
)

// Mem classes. Stores use only sideMemL1/sideMemMem: a store miss
// allocates the L1D line without an L2 access (store-queue retire).
//
//bplint:enum sideMemClass
const (
	sideMemNone = 0
	sideMemL1   = 1 // L1D hit
	sideMemL2   = 2 // load: L1D miss, L2 hit
	sideMemMem  = 3 // load: both miss; store: L1D miss
)

// MemSidecar is a precomputed memory-hierarchy outcome column for one
// (recording, cache geometry) pair: one class byte per recorded
// instruction. It exists because in a trace-driven no-wrong-path model the
// entire L1I/L1D/L2 access sequence is a pure function of the recorded
// stream in program order — independent of the branch predictor under test
// — so the hierarchy can be simulated once per recording and geometry
// instead of once per experiment-grid cell:
//
//   - The live model accesses the L1I at instruction i exactly when
//     i's block differs from the last-fetched block, and the last-fetched
//     block is either instruction i-1's block or cleared (0) by a
//     redirect/fetch break. If i's block differs from i-1's, the access
//     happens unconditionally. If it equals i-1's, the access happens only
//     after a clear — a re-touch of the block accessed for i-1 with no
//     intervening I-cache accesses, so the line is still resident and MRU:
//     a guaranteed hit that moves no cache state except the hit tally
//     (which each lane counts from its own accesses). The I-cache
//     therefore evolves along the predictor-independent new-block
//     subsequence.
//   - The D-cache is accessed for every load and store in program order,
//     unconditionally.
//   - The L2 access sequence is the L1I new-block misses interleaved with
//     the L1D load misses, in program order (store misses allocate in L1D
//     without an L2 access).
//
// The engine relies on the same fact without a sidecar: it classifies each
// batch with one shared memHier. The equivalence suites (fused_test.go,
// fastpath_test.go) check both against the test reference's per-lane live
// caches, bit for bit, across predictor organizations.
//
// Like the Recording it annotates, a built sidecar is shared read-only
// across goroutines; the frozen analyzer proves no post-publication write.
//
//bplint:frozen
type MemSidecar struct {
	rec   *trace.Recording
	geom  MemGeometry
	class []uint8
}

// Geometry returns the cache geometry the sidecar was computed under.
func (m *MemSidecar) Geometry() MemGeometry { return m.geom }

// SizeBytes returns the in-memory footprint of the class column.
func (m *MemSidecar) SizeBytes() int64 { return int64(len(m.class)) }

// covers reports whether the sidecar's precomputed outcomes apply to a run
// of cfg over cur: same recording, replay starting at the beginning, and
// identical cache geometry. Any other run classifies its batches as they
// arrive (memHier.classify), the same computation done on the fly.
func (m *MemSidecar) covers(cfg Config, cur *trace.Cursor) bool {
	return m.rec == cur.Recording() && cur.Pos() == 0 && m.geom == MemGeometryOf(cfg)
}

// BuildMemSidecar simulates the memory hierarchy once over the whole
// recording and returns the per-instruction outcome column. The cost is
// one cache-only pass per (recording, geometry); every timing cell that
// replays the recording under that geometry then reads the column instead
// of classifying each batch itself.
func BuildMemSidecar(rec *trace.Recording, geom MemGeometry) *MemSidecar {
	class := make([]uint8, rec.Len())
	h := newMemHier(geom)
	var batch [trace.InstBatchLen]trace.Inst
	cur := rec.Replay()
	for off := 0; ; {
		n := cur.NextInsts(batch[:])
		if n == 0 {
			return &MemSidecar{rec: rec, geom: geom, class: class}
		}
		h.classify(batch[:n], class[off:off+n])
		off += n
	}
}

// memHier is the L1I/L1D/L2 hierarchy the class column is computed
// from, plus the last fetched I-cache block. Because the access sequence
// depends only on the stream (see MemSidecar), one memHier run in
// program order serves every lane of a fused pass.
type memHier struct {
	icache, dcache, l2 *cache.Cache
	blockMask          uint64
	lastBlock          uint64 // block address + 1 of the previous instruction (0 = none)
}

func newMemHier(geom MemGeometry) *memHier {
	return &memHier{
		icache:    cache.New(geom.L1I),
		dcache:    cache.New(geom.L1D),
		l2:        cache.New(geom.L2),
		blockMask: ^uint64(int64(geom.L1I.LineBytes) - 1),
	}
}

// classify advances the hierarchy over batch, the next instructions of
// the stream, and writes each one's packed class byte to the same index of
// out.
//
// It runs once per 256-instruction batch when no sidecar covers the run;
// TestFusedTimingAllocs/generator pins that path allocation-free.
func (h *memHier) classify(batch []trace.Inst, out []uint8) {
	out = out[:len(batch)]
	for i := range batch {
		inst := &batch[i]
		var cls uint8
		if block := inst.PC&h.blockMask + 1; block != h.lastBlock {
			h.lastBlock = block
			switch {
			case h.icache.Access(inst.PC):
				cls = sideFetchL1 << sideFetchShift
			case h.l2.Access(inst.PC):
				cls = sideFetchL2 << sideFetchShift
			default:
				cls = sideFetchMem << sideFetchShift
			}
		}
		switch inst.Kind {
		case trace.Load:
			switch {
			case h.dcache.Access(inst.Addr):
				cls |= sideMemL1 << sideMemShift
			case h.l2.Access(inst.Addr):
				cls |= sideMemL2 << sideMemShift
			default:
				cls |= sideMemMem << sideMemShift
			}
		case trace.Store:
			if h.dcache.Access(inst.Addr) {
				cls |= sideMemL1 << sideMemShift
			} else {
				cls |= sideMemMem << sideMemShift
			}
		case trace.ALU, trace.Mul, trace.FPU, trace.CondBranch, trace.Jump:
			// No memory access: the mem field stays sideMemNone.
		default:
			panic("pipeline: unhandled instruction kind")
		}
		out[i] = cls
	}
}
