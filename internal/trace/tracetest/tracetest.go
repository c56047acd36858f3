// Package tracetest builds instruction streams from raw bytes for the
// simulators' differential fuzz targets, which decode every fuzz input
// into a well-formed stream and run it through an engine and its
// reference.
package tracetest

import "branchsim/internal/trace"

// instBytes is the encoded size of one instruction.
const instBytes = 5

// Decode turns data into a well-formed instruction stream, five bytes per
// instruction (a trailing partial group is ignored):
//
//   - byte 0: the kind (modulo trace.NumKinds); bit 7 is a branch's
//     outcome;
//   - byte 1: bit 0 clear continues at the next sequential PC, set jumps
//     to one of 128 block-aligned addresses, so streams both walk fetch
//     blocks and revisit hot branches;
//   - byte 2: the first source register, or none;
//   - byte 3: the second source and the destination registers;
//   - byte 4: the memory address and the control-flow target.
func Decode(data []byte) []trace.Inst {
	insts := make([]trace.Inst, 0, len(data)/instBytes)
	pc := uint64(0x1000)
	for ; len(data) >= instBytes; data = data[instBytes:] {
		b0, b1, b2, b3, b4 := data[0], data[1], data[2], data[3], data[4]
		if b1&1 == 0 {
			pc += 4
		} else {
			pc = 0x1000 + uint64(b1>>1)*52&^3
		}
		inst := trace.Inst{
			PC:   pc,
			Kind: trace.Kind(int(b0&0x7f) % trace.NumKinds),
			Src1: reg(b2),
			Src2: reg(b3),
			Dst:  reg(b3 / 33),
		}
		switch inst.Kind {
		case trace.Load, trace.Store:
			inst.Addr = 0x100000 + uint64(b4)*72
		case trace.CondBranch:
			inst.Taken = b0&0x80 != 0
			inst.Target = 0x1000 + uint64(b4)*4
		case trace.Jump:
			inst.Taken = true
			inst.Target = 0x1000 + uint64(b4)*4
		case trace.ALU, trace.Mul, trace.FPU:
		default:
			panic("tracetest: unhandled instruction kind")
		}
		insts = append(insts, inst)
	}
	return insts
}

// reg maps a byte to a register operand: trace.NoReg or 0..NumRegs-1.
func reg(b byte) int8 {
	return int8(int(b)%(trace.NumRegs+1)) - 1
}

// Slice is a plain trace.Source over a fixed instruction slice: it offers
// no batch protocol, so simulators drain it one Next call at a time.
type Slice struct {
	Insts []trace.Inst
	pos   int
}

// Next implements trace.Source.
func (s *Slice) Next(inst *trace.Inst) bool {
	if s.pos >= len(s.Insts) {
		return false
	}
	*inst = s.Insts[s.pos]
	s.pos++
	return true
}

// Name implements trace.Source.
func (s *Slice) Name() string { return "fuzz" }
