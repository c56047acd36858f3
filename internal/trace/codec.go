package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format (cmd/tracegen -record / -replay): a deterministic
// varint-delta encoding of a Recording. The format is a pure function of
// the instruction stream, so encode→decode→encode is byte-identical (the
// round-trip test in codec_test.go enforces this).
//
//	magic   "BPTRACE1"
//	name    uvarint length + bytes
//	insts   uvarint count
//	then per instruction, in stream order:
//	  meta    1 byte (kind | taken | hasAddr | hasTarget, as in recording.go)
//	  src1, src2, dst   1 byte each (int8)
//	  pc      zigzag varint delta from the previous instruction's PC
//	  addr    zigzag varint delta from the previous recorded Addr (only if hasAddr)
//	  target  zigzag varint delta from the previous recorded Target (only if hasTarget)
//
// Delta+zigzag keeps sequential PCs (usually +4) and strided addresses to
// one or two bytes each.
const traceMagic = "BPTRACE1"

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeBufLen bounds the encoder's output buffer: WriteTo flushes it to
// the writer whenever an instruction might not fit, so encoding (and
// digesting) a recording of any length costs one 16 KB buffer.
const encodeBufLen = 16 << 10

// maxInstBytes is the longest encoding of one instruction: the meta byte,
// three register bytes and three varints.
const maxInstBytes = 4 + 3*binary.MaxVarintLen64

// WriteTo encodes the recording in the binary trace format. It implements
// io.WriterTo. It is the one BPTRACE1 writer: Digest hashes its output. It
// encodes straight from the chunk columns — the chunk's meta byte is the
// format's meta byte, and the sparse columns hold exactly the addresses
// and targets the meta bits announce — into a bounded buffer.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, encodeBufLen)
	buf = append(buf, traceMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(r.name)))
	buf = append(buf, r.name...)
	buf = binary.AppendUvarint(buf, uint64(r.insts))
	n := len(buf)
	buf = buf[:cap(buf)]

	var written int64
	var prevPC, prevAddr, prevTarget uint64
	for ci := range r.chunks {
		c := &r.chunks[ci]
		meta := c.meta
		src1, src2, dst, pc := c.src1[:len(meta)], c.src2[:len(meta)], c.dst[:len(meta)], c.pc[:len(meta)]
		addr, target := c.addr, c.target
		for i, m := range meta {
			if n > len(buf)-maxInstBytes {
				k, err := w.Write(buf[:n])
				written += int64(k)
				if err != nil {
					return written, err
				}
				n = 0
			}
			buf[n] = m
			buf[n+1] = uint8(src1[i])
			buf[n+2] = uint8(src2[i])
			buf[n+3] = uint8(dst[i])
			n = putUvarint(buf, n+4, zigzag(int64(pc[i]-prevPC)))
			prevPC = pc[i]
			if m&metaHasAddr != 0 {
				n = putUvarint(buf, n, zigzag(int64(addr[0]-prevAddr)))
				prevAddr = addr[0]
				addr = addr[1:]
			}
			if m&metaHasTarget != 0 {
				n = putUvarint(buf, n, zigzag(int64(target[0]-prevTarget)))
				prevTarget = target[0]
				target = target[1:]
			}
		}
	}
	k, err := w.Write(buf[:n])
	return written + int64(k), err
}

// putUvarint writes v at buf[n:] as binary.PutUvarint would and returns
// the position after it. Most deltas fit in one byte.
func putUvarint(buf []byte, n int, v uint64) int {
	for v >= 0x80 {
		buf[n] = uint8(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = uint8(v)
	return n + 1
}

// ReadRecording decodes a binary trace written by WriteTo.
func ReadRecording(rd io.Reader) (*Recording, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, traceMagic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	const maxNameLen = 1 << 10
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	insts, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading instruction count: %w", err)
	}

	rec := &Recording{name: string(name)}
	var batch [InstBatchLen]Inst
	var hdr [4]byte
	var prevPC, prevAddr, prevTarget uint64
	nb := 0
	for i := uint64(0); i < insts; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: instruction %d: %w", i, err)
		}
		m := hdr[0]
		if Kind(m&metaKindMask) >= numKinds {
			return nil, fmt.Errorf("trace: instruction %d: invalid kind %d", i, m&metaKindMask)
		}
		inst := &batch[nb]
		inst.Kind = Kind(m & metaKindMask)
		inst.Taken = m&metaTaken != 0
		inst.Src1 = int8(hdr[1])
		inst.Src2 = int8(hdr[2])
		inst.Dst = int8(hdr[3])
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: instruction %d pc: %w", i, err)
		}
		prevPC += uint64(unzigzag(d))
		inst.PC = prevPC
		inst.Addr = 0
		if m&metaHasAddr != 0 {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: instruction %d addr: %w", i, err)
			}
			prevAddr += uint64(unzigzag(d))
			inst.Addr = prevAddr
		}
		inst.Target = 0
		if m&metaHasTarget != 0 {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: instruction %d target: %w", i, err)
			}
			prevTarget += uint64(unzigzag(d))
			inst.Target = prevTarget
		}
		if nb++; nb == len(batch) {
			rec.appendInsts(batch[:])
			nb = 0
		}
	}
	rec.appendInsts(batch[:nb])
	return rec, nil
}
