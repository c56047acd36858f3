// Package counter provides saturating counters and densely packed counter
// arrays, the basic storage substrate of table-based branch predictors.
//
// Pattern history tables (PHTs) are arrays of 2-bit saturating counters; some
// predictors (meta-predictors, choosers) use the same structure, and the
// perceptron predictor uses bit-sliced signed weights (WeightPlanes). All of
// them live here so the predictors themselves stay purely organizational.
package counter

import "fmt"

// Saturating is an n-bit unsigned saturating counter. The zero value is a
// 2-bit counter at zero ("strongly not taken") once Bits is set via New.
type Saturating struct {
	value uint32
	max   uint32
}

// NewSaturating returns an n-bit saturating counter initialized to init.
// It panics if bits is not in [1, 31] or init exceeds the maximum value.
func NewSaturating(bits uint, init uint32) Saturating {
	if bits < 1 || bits > 31 {
		panic(fmt.Sprintf("counter: invalid width %d", bits))
	}
	max := uint32(1)<<bits - 1
	if init > max {
		panic(fmt.Sprintf("counter: init %d exceeds max %d", init, max))
	}
	return Saturating{value: init, max: max}
}

// Inc increments the counter, saturating at its maximum.
func (c *Saturating) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements the counter, saturating at zero.
func (c *Saturating) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Update increments on taken, decrements otherwise.
func (c *Saturating) Update(taken bool) {
	if taken {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Value returns the current counter value.
func (c *Saturating) Value() uint32 { return c.value }

// Max returns the saturation value.
func (c *Saturating) Max() uint32 { return c.max }

// Taken reports the predicted direction: true when the counter is in its
// upper half.
func (c *Saturating) Taken() bool { return c.value > c.max/2 }

// Strong reports whether the counter is saturated at either extreme.
func (c *Saturating) Strong() bool { return c.value == 0 || c.value == c.max }

// Array2 is a packed array of 2-bit saturating counters, 32 counters per
// 64-bit word. This is the storage layout of every PHT in the repository; it
// keeps a 512 KB predictor at 512 KB of Go memory rather than 2 MB.
type Array2 struct {
	words []uint64
	n     int
}

// WeaklyTaken and friends name the four states of a 2-bit counter.
const (
	StronglyNotTaken = 0
	WeaklyNotTaken   = 1
	WeaklyTaken      = 2
	StronglyTaken    = 3
)

// NewArray2 returns an array of n 2-bit counters, all initialized to init
// (one of the four state constants). n must be positive.
func NewArray2(n int, init uint32) *Array2 {
	if n <= 0 {
		panic(fmt.Sprintf("counter: invalid array size %d", n))
	}
	if init > 3 {
		panic(fmt.Sprintf("counter: invalid 2-bit init %d", init))
	}
	a := &Array2{words: make([]uint64, (n+31)/32), n: n}
	if init != 0 {
		var w uint64
		for i := 0; i < 32; i++ {
			w |= uint64(init) << (2 * i)
		}
		for i := range a.words {
			a.words[i] = w
		}
	}
	return a
}

// Len returns the number of counters.
func (a *Array2) Len() int { return a.n }

// SizeBytes returns the hardware state size: 2 bits per counter.
func (a *Array2) SizeBytes() int { return (a.n*2 + 7) / 8 }

// Get returns the value of counter i (0..3).
func (a *Array2) Get(i int) uint32 {
	return uint32(a.words[i>>5]>>(2*(uint(i)&31))) & 3
}

// Set stores v (0..3) into counter i.
func (a *Array2) Set(i int, v uint32) {
	shift := 2 * (uint(i) & 31)
	w := &a.words[i>>5]
	*w = *w&^(3<<shift) | uint64(v&3)<<shift
}

// Taken reports the direction predicted by counter i.
func (a *Array2) Taken(i int) bool { return a.Get(i) >= 2 }

// Update increments counter i on taken, decrements otherwise, saturating.
func (a *Array2) Update(i int, taken bool) {
	v := a.Get(i)
	if taken {
		if v < 3 {
			a.Set(i, v+1)
		}
	} else {
		if v > 0 {
			a.Set(i, v-1)
		}
	}
}

// PredictUpdate reads counter i's predicted direction and applies the
// outcome in one pass over the packed word: Taken(i) followed by
// Update(i, taken), returning what Taken reported before the update. It is
// the batch steppers' primitive (predictor.BatchStepper): fusing the read
// and the saturating write halves the word traffic of the Predict/Update
// protocol on the table whose access dominates a cheap predictor's cost.
//
// Equivalence is pinned by TestPredictUpdate; the batch steppers built on
// it are pinned allocation-free by TestPredictorStepAllocs.
func (a *Array2) PredictUpdate(i int, taken bool) bool {
	shift := 2 * (uint(i) & 31)
	w := &a.words[i>>5]
	v := uint32(*w>>shift) & 3
	pred := v >= 2
	if taken {
		if v < 3 {
			v++
		}
	} else if v > 0 {
		v--
	}
	*w = *w&^(3<<shift) | uint64(v)<<shift
	return pred
}

// UpdateStrengthen implements the 2Bc-gskew partial-update rule for a single
// bank: if the counter already predicts the outcome, strengthen it; this is
// Update restricted to the agreeing direction.
func (a *Array2) UpdateStrengthen(i int, taken bool) {
	if a.Taken(i) == taken {
		a.Update(i, taken)
	}
}

// CloneRange copies counters [lo, lo+n) into dst, which must have length n.
// Used by the gshare.fast PHT-buffer prefetch, which reads a contiguous line
// of counters.
func (a *Array2) CloneRange(lo, n int, dst []uint32) {
	if len(dst) != n {
		panic("counter: CloneRange dst length mismatch")
	}
	for i := 0; i < n; i++ {
		dst[i] = a.Get(lo + i)
	}
}
