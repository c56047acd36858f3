package counter

import (
	"fmt"
	"math/bits"
)

// WeightPlanes is a table of perceptron rows — a signed bias plus one signed
// saturating weight per input lane — stored bit-sliced. A row's lane weights
// are bits-wide two's-complement integers kept as bits 64-bit planes: plane
// k holds bit k of every lane's weight, lane i in bit i, and the top plane
// is the sign plane. The bias is kept as an ordinary integer beside the
// planes.
//
// The layout turns the perceptron's two per-branch loops into word
// operations. With x the lanes' ±1 inputs as a bit vector (1 = +1), lane i
// contributes +w_i when x_i is set and −w_i otherwise, so the dot product
// is 2·Σ_{x_i set} w_i − Σ_i w_i. The first sum is popcount(P_k & x) per
// plane, weighted by 2^k and negated for the sign plane; the second is the
// row's weight total, kept beside the bias and adjusted by every Train.
// Training bumps every lane by ±1 at once with a ripple-carry
// increment/decrement across the planes, lanes already at the bound masked
// out, which is exactly the scalar per-weight saturating add.
type WeightPlanes struct {
	// words holds each row as bits+2 words: the bias and the total of
	// the lane weights (each a two's-complement int64) followed by planes
	// 0..bits-1, so one row is one contiguous read. The total is derived
	// from the planes, not hardware state.
	words []uint64
	rows  int
	lanes uint
	bits  uint
	mask  uint64 // the lanes in use; planes are zero outside it
	max   int
	min   int
}

// NewWeightPlanes returns rows rows of lanes weights each (lanes ≤ 64), plus
// a bias per row, every value a bits-wide signed saturating integer
// initialized to zero. bits must be in [2, 16].
func NewWeightPlanes(rows int, lanes, bits uint) *WeightPlanes {
	if bits < 2 || bits > 16 {
		panic(fmt.Sprintf("counter: invalid signed width %d", bits))
	}
	if rows <= 0 {
		panic(fmt.Sprintf("counter: invalid array size %d", rows))
	}
	if lanes > 64 {
		panic(fmt.Sprintf("counter: %d weight lanes exceed the 64-bit planes", lanes))
	}
	mask := ^uint64(0)
	if lanes < 64 {
		mask = 1<<lanes - 1
	}
	max := 1<<(bits-1) - 1
	return &WeightPlanes{
		words: make([]uint64, rows*int(bits+2)),
		rows:  rows,
		lanes: lanes,
		bits:  bits,
		mask:  mask,
		max:   max,
		min:   -max - 1,
	}
}

// SizeBytes returns the hardware state size: every row's bias and lane
// weights at bits bits each, rounded up over the whole table.
func (w *WeightPlanes) SizeBytes() int {
	return (w.rows*int(1+w.lanes)*int(w.bits) + 7) / 8
}

func (w *WeightPlanes) row(r int) []uint64 {
	stride := int(w.bits + 2)
	return w.words[r*stride : (r+1)*stride : (r+1)*stride]
}

// Bias returns row r's bias weight.
func (w *WeightPlanes) Bias(r int) int { return int(int64(w.row(r)[0])) }

// Weight returns the weight of lane i in row r.
func (w *WeightPlanes) Weight(r int, i uint) int {
	row := w.row(r)
	v := 0
	for k := uint(0); k < w.bits; k++ {
		v |= int(row[2+k]>>i&1) << k
	}
	if v > w.max {
		v -= 1 << w.bits // sign-extend
	}
	return v
}

// Dot returns row r's output for inputs x: the bias plus, for every lane i,
// +w_i when bit i of x is set and −w_i when it is clear. Bits of x above
// the lanes in use are ignored.
func (w *WeightPlanes) Dot(r int, x uint64) int {
	row := w.row(r)
	planes := row[2:]
	// Σ w_i over the set lanes, by Horner's rule from the sign plane down:
	// each plane's popcount enters at weight 1 and doubles per plane below.
	top := len(planes) - 1
	set := -bits.OnesCount64(planes[top] & x)
	for k := top - 1; k >= 0; k-- {
		set = 2*set + bits.OnesCount64(planes[k]&x)
	}
	return int(int64(row[0])) + 2*set - int(int64(row[1]))
}

// Train moves row r toward the outcome t: the bias by +1 when up and −1
// otherwise, and each lane weight i by +1 when bit i of x agrees with up
// and −1 when it does not, every value saturating at the width's bounds.
func (w *WeightPlanes) Train(r int, x uint64, up bool) {
	row := w.row(r)
	bias := int(int64(row[0]))
	if up && bias < w.max {
		bias++
	} else if !up && bias > w.min {
		bias--
	}
	row[0] = uint64(int64(bias))

	planes := row[2:]
	top := w.bits - 1
	// A lane at the maximum is 0 in the sign plane and 1 in every other;
	// a lane at the minimum is the opposite.
	atMax, atMin := ^planes[top], planes[top]
	for _, p := range planes[:top] {
		atMax &= p
		atMin &^= p
	}
	if !up {
		x = ^x
	}
	inc := x & w.mask &^ atMax
	dec := ^x & w.mask &^ atMin
	row[1] += uint64(bits.OnesCount64(inc) - bits.OnesCount64(dec))
	// Ripple-carry across the planes: an incremented lane flips bit k and
	// carries while the old bit was 1; a decremented lane flips and
	// borrows while the old bit was 0.
	active := inc | dec
	for k := range planes {
		if active == 0 {
			break
		}
		old := planes[k]
		planes[k] = old ^ active
		active &= old ^ dec
	}
}
