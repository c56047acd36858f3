package trace

import (
	"bytes"
	"testing"
)

// The recorder, the encoder behind Digest and the decoder allocate per
// batch, chunk or column growth, never per instruction. Each bound below
// is a constant that holds at a short stream and at a full chunk; an
// allocation per instruction would exceed it by three orders of magnitude.
// The tests skip themselves under -race, which instruments allocation.
const (
	recordAllocBound = 64
	digestAllocBound = 8
	decodeAllocBound = 64
)

// allocStreamLens are the stream lengths every bound must hold at.
var allocStreamLens = []int64{1000, chunkLen}

func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range allocStreamLens {
		allocs := testing.AllocsPerRun(5, func() {
			Record(&lcgSource{state: 7, n: n}, n)
		})
		if allocs > recordAllocBound {
			t.Errorf("Record of %d instructions: %.0f allocations, want at most %d", n, allocs, recordAllocBound)
		}
	}
}

func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range append(allocStreamLens, 3*chunkLen) {
		rec := Record(&lcgSource{state: 7, n: n}, n)
		allocs := testing.AllocsPerRun(5, func() {
			// A fresh Recording over the same chunks, so every run
			// computes the digest instead of reading the cached one.
			fresh := &Recording{name: rec.name, chunks: rec.chunks, insts: rec.insts}
			fresh.Digest()
		})
		if allocs > digestAllocBound {
			t.Errorf("Digest of %d instructions: %.0f allocations, want at most %d", n, allocs, digestAllocBound)
		}
	}
}

func TestReadRecordingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range allocStreamLens {
		var buf bytes.Buffer
		if _, err := Record(&lcgSource{state: 7, n: n}, n).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadRecording(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > decodeAllocBound {
			t.Errorf("ReadRecording of %d instructions: %.0f allocations, want at most %d", n, allocs, decodeAllocBound)
		}
	}
}

// TestCursorAllocs pins replay allocation-free under each protocol: after a
// Reset, draining a multi-chunk recording through Next, NextInsts or
// NextBranches allocates nothing.
func TestCursorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := int64(2*chunkLen + 1000)
	cur := Record(&lcgSource{state: 7, n: n}, n).Replay()
	var inst Inst
	insts := make([]Inst, InstBatchLen)
	branches := make([]BranchRec, BatchLen)
	for _, p := range []struct {
		name  string
		drain func()
	}{
		{"Next", func() {
			for cur.Next(&inst) {
			}
		}},
		{"NextInsts", func() {
			for cur.NextInsts(insts) > 0 {
			}
		}},
		{"NextBranches", func() {
			for cur.NextBranches(branches) > 0 {
			}
		}},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			cur.Reset()
			p.drain()
		})
		if allocs != 0 {
			t.Errorf("%s over %d instructions: %.1f allocations, want 0", p.name, n, allocs)
		}
	}
}
