package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// addCodecSeeds seeds a BPTRACE1 fuzz target with encoded recordings and
// two malformed inputs.
func addCodecSeeds(f *testing.F) {
	encode := func(name string, insts []Inst) []byte {
		rec := &Recording{name: name}
		rec.appendInsts(insts)
		var buf bytes.Buffer
		if _, err := rec.WriteTo(&buf); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Add(encode("empty", nil))
	f.Add(encode("mixed", []Inst{
		{PC: 0x1000, Kind: ALU, Src1: 1, Src2: 2, Dst: 3},
		{PC: 0x1004, Kind: Load, Src1: 3, Dst: 4, Addr: 0xdead0000},
		{PC: 0x1008, Kind: CondBranch, Src1: 4, Taken: true, Target: 0x1000},
		{PC: 0x1000, Kind: Store, Src1: 4, Src2: 1, Addr: 0xdeacfff8},
	}))
	// Backwards PC and address deltas exercise the zigzag path.
	f.Add(encode("backwards", []Inst{
		{PC: 0xffff_ffff_ffff_fff0, Kind: ALU},
		{PC: 0x10, Kind: Load, Addr: 0xffff_ffff_0000_0000},
		{PC: 0x8, Kind: Load, Addr: 0x8},
	}))
	f.Add([]byte("BPTRACE1\x00\x00"))
	f.Add([]byte("NOTATRACE"))
}

// FuzzCodecRoundTrip drives arbitrary bytes through the BPTRACE1 decoder.
// Any input the decoder accepts must re-encode to a canonical byte string
// that is a fixed point (decode→encode→decode→encode is byte-identical)
// and must replay to the same instruction stream — the reproducibility
// contract the experiment grids and cmd/tracegen rely on. Inputs the
// decoder rejects must fail with an error, never a panic.
func FuzzCodecRoundTrip(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return // rejected input: an error, not a crash, is the contract
		}
		var first bytes.Buffer
		if _, err := rec.WriteTo(&first); err != nil {
			t.Fatalf("re-encoding a decoded recording: %v", err)
		}
		rec2, err := ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		var second bytes.Buffer
		if _, err := rec2.WriteTo(&second); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode is not a fixed point:\nfirst:  %x\nsecond: %x", first.Bytes(), second.Bytes())
		}
		if rec.Name() != rec2.Name() || rec.Len() != rec2.Len() {
			t.Fatalf("header mismatch: (%q, %d) vs (%q, %d)", rec.Name(), rec.Len(), rec2.Name(), rec2.Len())
		}
		var a, b Inst
		ca, cb := rec.Replay(), rec2.Replay()
		for i := int64(0); ; i++ {
			okA, okB := ca.Next(&a), cb.Next(&b)
			if okA != okB {
				t.Fatalf("stream lengths diverge at %d", i)
			}
			if !okA {
				break
			}
			if a != b {
				t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzEncodeVsReference checks the columnar encoder against the naive
// one: every recording the decoder accepts must encode to the same bytes,
// with the same reported length, under WriteTo and referenceWriteTo, and
// Digest must be the SHA-256 of those bytes.
func FuzzEncodeVsReference(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkEncodeVsReference(t, rec)
	})
}

// checkEncodeVsReference fails t unless rec encodes identically under both
// encoders and digests to the SHA-256 of that encoding.
func checkEncodeVsReference(t *testing.T, rec *Recording) {
	t.Helper()
	var got, want bytes.Buffer
	nGot, err := rec.WriteTo(&got)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	nWant, err := referenceWriteTo(rec, &want)
	if err != nil {
		t.Fatalf("referenceWriteTo: %v", err)
	}
	if nGot != nWant || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoders disagree: WriteTo %d bytes %x, reference %d bytes %x", nGot, got.Bytes(), nWant, want.Bytes())
	}
	if sum := sha256.Sum256(want.Bytes()); rec.Digest() != hex.EncodeToString(sum[:]) {
		t.Fatalf("Digest %s is not the SHA-256 of the encoding", rec.Digest())
	}
}
