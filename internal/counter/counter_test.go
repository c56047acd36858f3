package counter

import (
	"testing"
	"testing/quick"
)

func TestSaturatingBounds(t *testing.T) {
	c := NewSaturating(2, 0)
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Fatalf("Dec below zero: %d", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("Inc above max: %d", c.Value())
	}
	if c.Max() != 3 {
		t.Fatalf("Max = %d", c.Max())
	}
}

func TestSaturatingTakenThreshold(t *testing.T) {
	// 2-bit counter: 0,1 predict not-taken; 2,3 predict taken.
	for v, want := range map[uint32]bool{0: false, 1: false, 2: true, 3: true} {
		c := NewSaturating(2, v)
		if c.Taken() != want {
			t.Errorf("value %d Taken = %v, want %v", v, c.Taken(), want)
		}
	}
}

func TestSaturatingStrong(t *testing.T) {
	for v, want := range map[uint32]bool{0: true, 1: false, 2: false, 3: true} {
		c := NewSaturating(2, v)
		if c.Strong() != want {
			t.Errorf("value %d Strong = %v, want %v", v, c.Strong(), want)
		}
	}
}

func TestSaturatingUpdate(t *testing.T) {
	c := NewSaturating(3, 4)
	c.Update(true)
	if c.Value() != 5 {
		t.Fatalf("Update(true): %d", c.Value())
	}
	c.Update(false)
	c.Update(false)
	if c.Value() != 3 {
		t.Fatalf("Update(false) twice: %d", c.Value())
	}
}

func TestSaturatingInvalidConfig(t *testing.T) {
	for _, tc := range []struct{ bits, init uint32 }{{0, 0}, {32, 0}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSaturating(%d,%d) did not panic", tc.bits, tc.init)
				}
			}()
			NewSaturating(uint(tc.bits), tc.init)
		}()
	}
}

// referenceArray2 is a plain-slice model of Array2 for property testing.
type referenceArray2 []uint32

func TestArray2MatchesReference(t *testing.T) {
	const n = 257 // deliberately not a multiple of 32
	a := NewArray2(n, WeaklyNotTaken)
	ref := make(referenceArray2, n)
	for i := range ref {
		ref[i] = WeaklyNotTaken
	}
	f := func(idxRaw uint16, taken bool) bool {
		i := int(idxRaw) % n
		a.Update(i, taken)
		if taken {
			if ref[i] < 3 {
				ref[i]++
			}
		} else if ref[i] > 0 {
			ref[i]--
		}
		return a.Get(i) == ref[i] && a.Taken(i) == (ref[i] >= 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// The untouched neighbours must be unchanged.
	for i := 0; i < n; i++ {
		if a.Get(i) != ref[i] {
			t.Fatalf("entry %d drifted: %d vs %d", i, a.Get(i), ref[i])
		}
	}
}

func TestArray2SetGetRoundTrip(t *testing.T) {
	a := NewArray2(100, 0)
	f := func(idxRaw uint8, v uint8) bool {
		i := int(idxRaw) % 100
		a.Set(i, uint32(v%4))
		return a.Get(i) == uint32(v%4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArray2SizeBytes(t *testing.T) {
	if got := NewArray2(4096, 0).SizeBytes(); got != 1024 {
		t.Fatalf("4096 2-bit counters = %d bytes, want 1024", got)
	}
	if got := NewArray2(3, 0).SizeBytes(); got != 1 {
		t.Fatalf("3 counters = %d bytes, want 1", got)
	}
}

func TestArray2InitValue(t *testing.T) {
	a := NewArray2(67, WeaklyTaken)
	for i := 0; i < 67; i++ {
		if a.Get(i) != WeaklyTaken {
			t.Fatalf("entry %d initialized to %d", i, a.Get(i))
		}
	}
}

func TestArray2UpdateStrengthen(t *testing.T) {
	a := NewArray2(4, WeaklyTaken) // predicts taken
	a.UpdateStrengthen(0, true)    // agrees: strengthen
	if a.Get(0) != StronglyTaken {
		t.Fatalf("strengthen agreeing: %d", a.Get(0))
	}
	a.UpdateStrengthen(1, false) // disagrees: untouched
	if a.Get(1) != WeaklyTaken {
		t.Fatalf("strengthen disagreeing moved counter: %d", a.Get(1))
	}
}

func TestArray2CloneRange(t *testing.T) {
	a := NewArray2(64, 0)
	for i := 0; i < 64; i++ {
		a.Set(i, uint32(i%4))
	}
	dst := make([]uint32, 8)
	a.CloneRange(16, 8, dst)
	for i, v := range dst {
		if v != uint32((16+i)%4) {
			t.Fatalf("clone[%d] = %d", i, v)
		}
	}
}

func TestArrayNBounds(t *testing.T) {
	a := NewArrayN(10, 3, 3)
	for i := 0; i < 20; i++ {
		a.Update(0, true)
	}
	if a.Get(0) != 7 {
		t.Fatalf("3-bit counter max: %d", a.Get(0))
	}
	for i := 0; i < 20; i++ {
		a.Update(0, false)
	}
	if a.Get(0) != 0 {
		t.Fatalf("3-bit counter min: %d", a.Get(0))
	}
}

func TestArrayNTakenThreshold(t *testing.T) {
	a := NewArrayN(8, 3, 0)
	a.Set(0, 3)
	a.Set(1, 4)
	if a.Taken(0) {
		t.Fatal("3-bit value 3 should predict not taken")
	}
	if !a.Taken(1) {
		t.Fatal("3-bit value 4 should predict taken")
	}
}

func TestArrayNSizeBytes(t *testing.T) {
	if got := NewArrayN(1024, 3, 0).SizeBytes(); got != 384 {
		t.Fatalf("1024 3-bit counters = %d bytes, want 384", got)
	}
}

func TestWeightPlanesSaturation(t *testing.T) {
	w := NewWeightPlanes(4, 3, 8) // 8-bit weights saturate at 127 and -128
	// Lane 0 always agrees with the outcome, lane 1 always disagrees,
	// lane 2 follows it.
	for i := 0; i < 1000; i++ {
		w.Train(2, 0b101, true)
	}
	if w.Bias(2) != 127 || w.Weight(2, 0) != 127 || w.Weight(2, 1) != -128 || w.Weight(2, 2) != 127 {
		t.Fatalf("saturate up: bias %d, weights %d %d %d",
			w.Bias(2), w.Weight(2, 0), w.Weight(2, 1), w.Weight(2, 2))
	}
	for i := 0; i < 1000; i++ {
		w.Train(2, 0b101, false)
	}
	if w.Bias(2) != -128 || w.Weight(2, 0) != -128 || w.Weight(2, 1) != 127 || w.Weight(2, 2) != -128 {
		t.Fatalf("saturate down: bias %d, weights %d %d %d",
			w.Bias(2), w.Weight(2, 0), w.Weight(2, 1), w.Weight(2, 2))
	}
	for _, r := range []int{0, 1, 3} {
		if w.Bias(r) != 0 || w.Dot(r, ^uint64(0)) != 0 {
			t.Fatalf("training row 2 disturbed row %d", r)
		}
	}
}

// TestWeightPlanesMatchScalar holds the bit-sliced Dot and Train to the
// scalar perceptron arithmetic — one saturating int per weight, one
// multiply-accumulate per lane — over random inputs, at every width, at
// full and partial lane counts, and long enough for weights to saturate.
func TestWeightPlanesMatchScalar(t *testing.T) {
	f := func(seed uint64, lanesRaw, bitsRaw uint8, steps []uint64) bool {
		lanes := uint(lanesRaw % 65) // 0..64
		bits := 2 + uint(bitsRaw%15) // 2..16
		w := NewWeightPlanes(2, lanes, bits)
		max, min := 1<<(bits-1)-1, -(1 << (bits - 1))
		ref := make([]int, 1+lanes) // bias, then lanes
		x := seed
		for _, s := range steps {
			// Bias the walk so weights reach both bounds.
			up := s%5 < 3
			for n := 0; n < 1+int(s>>60); n++ {
				x = x*6364136223846793005 + 1442695040888963407
				w.Train(1, x, up)
				for i := range ref {
					inc := up // the bias follows the outcome
					if i > 0 {
						inc = (x>>(i-1)&1 == 1) == up
					}
					if inc && ref[i] < max {
						ref[i]++
					} else if !inc && ref[i] > min {
						ref[i]--
					}
				}
			}
			y := ref[0]
			for i := uint(0); i < lanes; i++ {
				if s>>i&1 == 1 {
					y += ref[1+i]
				} else {
					y -= ref[1+i]
				}
			}
			if w.Dot(1, s) != y || w.Bias(1) != ref[0] {
				return false
			}
			for i := uint(0); i < lanes; i++ {
				if w.Weight(1, i) != ref[1+i] {
					return false
				}
			}
			if w.Dot(0, s) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightPlanesSizeBytes(t *testing.T) {
	// The hardware budget counts the bias and every lane weight at the
	// declared width: 100 rows of 1+9 8-bit weights are 1000 bytes.
	if got := NewWeightPlanes(100, 9, 8).SizeBytes(); got != 1000 {
		t.Fatalf("100 rows of 10 8-bit weights = %d bytes", got)
	}
	if got := NewWeightPlanes(3, 2, 3).SizeBytes(); got != 4 {
		t.Fatalf("27 bits = %d bytes, want 4", got)
	}
}

func TestWeightPlanesInvalid(t *testing.T) {
	for i, f := range []func(){
		func() { NewWeightPlanes(0, 8, 8) },
		func() { NewWeightPlanes(1, 65, 8) },
		func() { NewWeightPlanes(1, 8, 1) },
		func() { NewWeightPlanes(1, 8, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestPredictUpdate pins the fused read-modify-write against the scalar
// Taken-then-Update pair across every counter state, outcome, and packing
// position (first, middle, and last counter of a word).
func TestPredictUpdate(t *testing.T) {
	for _, i := range []int{0, 17, 31, 32, 63} {
		for init := uint32(0); init <= 3; init++ {
			for _, taken := range []bool{false, true} {
				fused := NewArray2(64, 0)
				scalar := NewArray2(64, 0)
				// Surround counter i with saturated neighbours to catch
				// cross-counter word corruption.
				for j := 0; j < 64; j++ {
					fused.Set(j, 3)
					scalar.Set(j, 3)
				}
				fused.Set(i, init)
				scalar.Set(i, init)
				wantPred := scalar.Taken(i)
				scalar.Update(i, taken)
				if gotPred := fused.PredictUpdate(i, taken); gotPred != wantPred {
					t.Fatalf("i=%d init=%d taken=%v: pred %v, want %v", i, init, taken, gotPred, wantPred)
				}
				for j := 0; j < 64; j++ {
					if fused.Get(j) != scalar.Get(j) {
						t.Fatalf("i=%d init=%d taken=%v: counter %d is %d, want %d",
							i, init, taken, j, fused.Get(j), scalar.Get(j))
					}
				}
			}
		}
	}
}
