package trace

import (
	"bytes"
	"regexp"
	"sync"
	"testing"
)

// digestTestStream builds a small deterministic stream exercising every
// sparse column (addrs, targets, branches).
func digestTestStream(n int, pcBase uint64) *Recording {
	rec := &Recording{name: "digest-test"}
	for i := 0; i < n; i++ {
		inst := Inst{Kind: ALU, PC: pcBase + uint64(4*i)}
		switch i % 5 {
		case 1:
			inst.Kind = Load
			inst.Addr = 0x1000 + uint64(8*i)
		case 2:
			inst.Kind = CondBranch
			inst.Taken = i%2 == 0
			inst.Target = pcBase + uint64(4*i) + 64
		case 3:
			inst.Kind = Store
			inst.Addr = 0x2000 + uint64(16*i)
		}
		rec.appendInsts([]Inst{inst})
	}
	return rec
}

func TestDigestDeterministic(t *testing.T) {
	a := digestTestStream(500, 0x4000)
	b := digestTestStream(500, 0x4000)
	if a.Digest() != b.Digest() {
		t.Fatalf("identical streams digest differently: %s vs %s", a.Digest(), b.Digest())
	}
	if a.Digest() != a.Digest() {
		t.Fatal("digest not stable across calls")
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a.Digest()) {
		t.Fatalf("digest is not hex sha-256: %q", a.Digest())
	}
}

func TestDigestDistinguishesStreams(t *testing.T) {
	base := digestTestStream(500, 0x4000)
	shifted := digestTestStream(500, 0x4004)
	longer := digestTestStream(501, 0x4000)
	if base.Digest() == shifted.Digest() {
		t.Fatal("different PCs, same digest")
	}
	if base.Digest() == longer.Digest() {
		t.Fatal("different lengths, same digest")
	}
}

// TestDigestStableAcrossCodec pins the property the persistent result store
// depends on: a recording round-tripped through the BPTRACE1 codec — the
// cross-process interchange path — digests identically to the original, so
// store keys survive process boundaries.
func TestDigestStableAcrossCodec(t *testing.T) {
	rec := digestTestStream(2000, 0x8000)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decoded.Digest(), rec.Digest(); got != want {
		t.Fatalf("codec round-trip changed digest: %s -> %s", want, got)
	}
}

// TestDigestConcurrent calls Digest from many goroutines at once; run
// under -race it is the runtime twin of the frozen analyzer's rule that a
// published Recording is never written: Digest only reads it.
func TestDigestConcurrent(t *testing.T) {
	rec := digestTestStream(1000, 0x4000)
	want := digestTestStream(1000, 0x4000).Digest()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = rec.Digest()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("goroutine %d saw digest %s, want %s", i, d, want)
		}
	}
}
