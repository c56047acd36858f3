package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// referenceWriteTo is the naive BPTRACE1 encoder the columnar encode
// replaced, kept as the reference it is checked against
// (FuzzEncodeVsReference, TestEncodeMatchesReference): it replays the
// recording one instruction at a time through Cursor.Next, rebuilds each
// meta byte from the Inst, and writes byte by byte through a bufio.Writer.
func referenceWriteTo(r *Recording, w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		bw.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	bw.WriteString(traceMagic)
	putUvarint(uint64(len(r.name)))
	bw.WriteString(r.name)
	putUvarint(uint64(r.insts))

	var inst Inst
	var prevPC, prevAddr, prevTarget uint64
	cur := r.Replay()
	for cur.Next(&inst) {
		m := uint8(inst.Kind) & metaKindMask
		if inst.Taken {
			m |= metaTaken
		}
		if inst.Addr != 0 {
			m |= metaHasAddr
		}
		if inst.Target != 0 {
			m |= metaHasTarget
		}
		bw.WriteByte(m)
		bw.WriteByte(uint8(inst.Src1))
		bw.WriteByte(uint8(inst.Src2))
		bw.WriteByte(uint8(inst.Dst))
		putUvarint(zigzag(int64(inst.PC - prevPC)))
		prevPC = inst.PC
		if m&metaHasAddr != 0 {
			putUvarint(zigzag(int64(inst.Addr - prevAddr)))
			prevAddr = inst.Addr
		}
		if m&metaHasTarget != 0 {
			putUvarint(zigzag(int64(inst.Target - prevTarget)))
			prevTarget = inst.Target
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countingWriter tracks the bytes referenceWriteTo has written.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
