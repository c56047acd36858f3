package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	const n = chunkLen + 4567 // cross a chunk boundary
	rec := Record(&lcgSource{state: 11, n: n}, n)

	var buf bytes.Buffer
	written, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if written != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
	}

	dec, err := ReadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadRecording: %v", err)
	}
	if dec.Name() != rec.Name() || dec.Len() != rec.Len() {
		t.Fatalf("decoded (%q, %d), want (%q, %d)", dec.Name(), dec.Len(), rec.Name(), rec.Len())
	}

	// The decoded stream must be byte-identical instruction-for-instruction.
	want := drain(rec.Replay(), n)
	got := drain(dec.Replay(), n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d differs after round trip: %+v vs %+v", i, got[i], want[i])
		}
	}

	// And the format is deterministic: re-encoding reproduces the bytes.
	var buf2 bytes.Buffer
	if _, err := dec.WriteTo(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded trace differs: %d vs %d bytes", buf.Len(), buf2.Len())
	}
}

func TestCodecCompactness(t *testing.T) {
	const n = 50_000
	rec := Record(&lcgSource{state: 2, n: n}, n)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Delta+varint should beat the ~40-byte []Inst representation by a
	// wide margin; anything under 16 bytes/inst proves the deltas engage.
	if perInst := float64(buf.Len()) / n; perInst > 16 {
		t.Fatalf("encoded %.1f bytes/inst; varint-delta encoding not effective", perInst)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadRecording(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadRecording(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload: a valid header claiming more instructions than
	// the body holds.
	rec := Record(&lcgSource{state: 9, n: 100}, 100)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecording(bytes.NewReader(buf.Bytes()[:buf.Len()-10])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 4, -4, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", d, got)
		}
	}
}

// TestEncodeMatchesReference checks the columnar encoder against the naive
// reference across chunk boundaries: three full chunks and a partial
// fourth, where the second chunk carries no address and no target (empty
// sparse columns) and the stream's delta bases must carry across it.
func TestEncodeMatchesReference(t *testing.T) {
	rec := &Recording{name: "four-chunks"}
	insts := drain(&lcgSource{state: 5, n: chunkLen}, chunkLen)
	rec.appendInsts(insts)
	for i := range insts {
		insts[i] = Inst{PC: 0x4000 + 4*uint64(i), Kind: ALU, Src1: 1, Src2: NoReg, Dst: 2}
	}
	rec.appendInsts(insts)
	rec.appendInsts(drain(&lcgSource{state: 6, n: chunkLen + 1234}, chunkLen+1234))
	if len(rec.chunks) != 4 || len(rec.chunks[1].addr) != 0 || len(rec.chunks[1].target) != 0 {
		t.Fatalf("test stream has %d chunks, chunk 1 with %d addrs and %d targets; want 4, 0, 0",
			len(rec.chunks), len(rec.chunks[1].addr), len(rec.chunks[1].target))
	}
	checkEncodeVsReference(t, rec)
}

// failingWriter accepts limit bytes, then fails.
type failingWriter struct{ limit int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, io.ErrShortWrite
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteToReportsWriterError checks WriteTo's io.WriterTo contract when
// the writer fails mid-stream: the error comes back with the count of
// bytes the writer accepted.
func TestWriteToReportsWriterError(t *testing.T) {
	rec := Record(&lcgSource{state: 3, n: 20_000}, 20_000)
	const limit = encodeBufLen + 100
	n, err := rec.WriteTo(&failingWriter{limit: limit})
	if err != io.ErrShortWrite || n != limit {
		t.Fatalf("WriteTo = (%d, %v), want (%d, %v)", n, err, limit, io.ErrShortWrite)
	}
}
