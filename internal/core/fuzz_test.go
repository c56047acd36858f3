package core

import (
	"reflect"
	"testing"
)

// fuzzHeader is the number of leading input bytes that pick the predictor
// and the clocking: kind, table size, latency, update lag, buffer bits,
// and the cycle-column convention with its count of leading zero cycles.
const fuzzHeader = 6

// FuzzStepVsReference drives a gshare.fast (plain or NoCheckpoint) or a
// bimode.fast through StepBatch and, for gshare.fast, StepBlock over a
// random branch stream cut into random runs, and the test-only references
// (reference_test.go) through the scalar protocol over the same stream. The
// cycle column is non-decreasing and starts with zeros, under one of three
// conventions: no column (the predictor clocks itself), a column announced
// entry by entry (the timing engine's), or the accuracy engine's, which
// steps its cycle-0 prefix with no column. Update lags up to 64 branches
// wrap gshare.fast's write ring many times over a stream. Every prediction,
// and the table, history, clock, snapshot and write-queue state at the end,
// must match.
func FuzzStepVsReference(f *testing.F) {
	for i, n := range []int{0, 40, 400, 3000} {
		seed := make([]byte, fuzzHeader+2*n)
		x := uint32(n + 3)
		for j := range seed {
			x = x*1664525 + 1013904223
			seed[j] = byte(x >> 24)
		}
		seed[0] = byte(i)     // one seed per kind, and block steps
		seed[3] = byte(2 + i) // lags 1, 3, 7, 64: the 40- and 3000-branch gshare.fast seeds wrap the write ring 13 and 46 times
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		hdr, body := data[:fuzzHeader], data[fuzzHeader:]
		cfg := Config{
			Entries:    1 << (4 + hdr[1]%10),
			Latency:    1 + int(hdr[2]%6),
			UpdateLag:  []int{0, 0, 1, 3, 7, 64}[hdr[3]%6],
			BufferBits: uint(hdr[4] % 12),
		}
		mode, zeros := hdr[5]%3, int(hdr[5]/3%8)

		// The stream: two bytes per branch — the PC, then the outcome,
		// the cycle increment, and whether the branch ends a run and
		// whether its run is a block step.
		n := len(body) / 2
		pcs, takens, cycles := make([]uint64, n), make([]bool, n), make([]uint64, n)
		ends, blocks := make([]bool, n), make([]bool, n)
		var cycle uint64
		for i := 0; i < n; i++ {
			a, b := body[2*i], body[2*i+1]
			pcs[i] = 0x1000 + uint64(a%64)*4 + uint64(a>>6)<<12
			takens[i] = b&1 == 1
			if i >= zeros {
				cycle += uint64(b >> 1 & 3)
			}
			cycles[i] = cycle
			ends[i] = b>>3&1 == 1
			blocks[i] = b>>4&1 == 1
		}

		var (
			step     func(pcs []uint64, takens []bool, cycles []uint64, preds []bool)
			block    func(pcs []uint64, takens, preds []bool)
			ref      interface{ OnCycle(uint64) }
			predict  func(pc uint64) bool
			update   func(pc uint64, taken bool)
			refBlock *refGShareFast
			check    func()
		)
		switch hdr[0] % 3 {
		case 0, 1:
			g, r := New(cfg), newRefGShareFast(cfg)
			step, block = g.StepBatch, g.StepBlock
			if hdr[0]%3 == 1 {
				nc := WithoutCheckpointing(g)
				if nc.RecoveryPenalty() != cfg.Latency {
					t.Fatalf("NoCheckpoint penalty %d, latency %d", nc.RecoveryPenalty(), cfg.Latency)
				}
				step, block = nc.StepBatch, nc.StepBlock
			}
			ref, predict, update, refBlock = r, r.Predict, r.Update, r
			check = func() {
				if g.queued != len(r.pending) {
					t.Fatalf("write queue %d, reference %d", g.queued, len(r.pending))
				}
				for i, w := range r.pending {
					if u := g.pending[(g.head+i)%cfg.UpdateLag]; u != w {
						t.Fatalf("queued write %d: %+v, reference %+v", i, u, w)
					}
				}
				g.Flush()
				r.Flush()
				if !reflect.DeepEqual(g.pht, r.pht) {
					t.Fatal("PHT diverges from the reference")
				}
				checkPipe(t, &g.FastPipe, r)
			}
		default:
			bcfg := BiModeFastConfig{DirEntries: cfg.Entries, ChoiceEntries: 1 << (hdr[4] % 8), Latency: cfg.Latency}
			b, r := NewBiModeFast(bcfg), newRefBiModeFast(bcfg)
			step = b.StepBatch
			ref, predict, update = r, r.Predict, r.Update
			check = func() {
				for _, p := range [][2]any{{b.taken, r.taken}, {b.notTkn, r.notTkn}, {b.choice, r.choice}} {
					if !reflect.DeepEqual(p[0], p[1]) {
						t.Fatal("bimode.fast tables diverge from the reference")
					}
				}
				checkPipe(t, &b.FastPipe, r.pipe)
			}
		}

		preds := make([]bool, n)
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && !ends[hi-1] && hi-lo < 64 {
				hi++
			}
			got := preds[lo:hi]
			var want []bool
			if blocks[lo] && block != nil {
				block(pcs[lo:hi], takens[lo:hi], got)
				want = refBlock.PredictBlock(pcs[lo:hi])
				refBlock.UpdateBlock(pcs[lo:hi], takens[lo:hi])
			} else {
				switch mode {
				case 0:
					step(pcs[lo:hi], takens[lo:hi], nil, got)
				case 1:
					step(pcs[lo:hi], takens[lo:hi], cycles[lo:hi], got)
				default:
					self := lo
					for self < hi && cycles[self] == 0 {
						self++
					}
					step(pcs[lo:self], takens[lo:self], nil, preds[lo:self])
					step(pcs[self:hi], takens[self:hi], cycles[self:hi], preds[self:hi])
				}
				for i := lo; i < hi; i++ {
					if mode == 1 || mode == 2 && cycles[i] != 0 {
						ref.OnCycle(cycles[i])
					}
					want = append(want, predict(pcs[i]))
					update(pcs[i], takens[i])
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("branch %d (run [%d,%d), mode %d, block %v): step predicts %v, reference %v",
						lo+i, lo, hi, mode, blocks[lo] && block != nil, got[i], want[i])
				}
			}
			lo = hi
		}
		check()
	})
}

// checkPipe demands the FastPipe state match the reference's: history,
// push count, clock, clock source and snapshot list.
func checkPipe(t *testing.T, f *FastPipe, r *refGShareFast) {
	t.Helper()
	if f.History() != r.ghr.Value() || f.pushes != r.pushes || f.cycle != r.cycle || f.externalClock != r.externalClock {
		t.Fatalf("pipe state (hist %#x, pushes %d, cycle %d, external %v), reference (%#x, %d, %d, %v)",
			f.History(), f.pushes, f.cycle, f.externalClock, r.ghr.Value(), r.pushes, r.cycle, r.externalClock)
	}
	if len(f.snaps) != len(r.snaps) {
		t.Fatalf("%d snapshots, reference %d", len(f.snaps), len(r.snaps))
	}
	for i, s := range f.snaps {
		if w := r.snaps[i]; s.cycle != w.cycle || s.pushes != w.pushes || s.hist != w.hist {
			t.Fatalf("snapshot %d: %+v, reference %+v", i, s, w)
		}
	}
}
