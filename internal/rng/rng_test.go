package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("streams diverge at %d: %x vs %x", i, x, y)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Pinned first outputs for seed 1234567: the workload streams depend
	// on these never changing across refactors or Go versions.
	s := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85, // computed once and pinned: the streams must
		0x2c73f08458540fa5, // never change across refactors or Go versions
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("value %d = %#x, want %#x (seed stream changed!)", i, got, w)
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(7)
	b := NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := NewXoshiro256(8)
	same := 0
	a2 := NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 equal outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(1)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := NewXoshiro256(99)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestUint64nInRange(t *testing.T) {
	x := NewXoshiro256(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := x.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	x := NewXoshiro256(5)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[x.Uint64n(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 5*math.Sqrt(n/buckets) {
			t.Fatalf("bucket %d count %d deviates too far from %d", b, c, n/buckets)
		}
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	x := NewXoshiro256(11)
	for i := 0; i < 10000; i++ {
		if v := x.Uint64n(1 << 20); v >= 1<<20 {
			t.Fatalf("power-of-two path out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	x := NewXoshiro256(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			x.Intn(n)
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	x := NewXoshiro256(21)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", p)
	}
	if x.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !x.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestGeometricBounds(t *testing.T) {
	x := NewXoshiro256(33)
	for i := 0; i < 10000; i++ {
		g := x.Geometric(0.25, 16)
		if g < 1 || g > 16 {
			t.Fatalf("Geometric out of [1,16]: %d", g)
		}
	}
	if g := x.Geometric(0, 10); g != 1 {
		t.Fatalf("Geometric(0) = %d, want 1", g)
	}
}

func TestGeometricMean(t *testing.T) {
	x := NewXoshiro256(17)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(x.Geometric(0.5, 1000))
	}
	// Mean of a geometric with p=0.5 is 2.
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("Geometric(0.5) mean %v, want ~2", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	x := NewXoshiro256(4)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		dst := make([]int, n)
		x.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSeedNotAbsorbing(t *testing.T) {
	x := NewXoshiro256(0)
	zero := 0
	for i := 0; i < 100; i++ {
		if x.Next() == 0 {
			zero++
		}
	}
	if zero > 2 {
		t.Fatalf("seed 0 generator nearly stuck at zero (%d/100)", zero)
	}
}

// TestXoshiroGoldenVector pins the generator's draws, not just their
// self-determinism: every workload stream (and every store key digested
// from one) is a function of these values and of how many words each draw
// consumes. It covers Next, Uint64n on an odd n, on the two non-power-of-two
// working-set sizes, and on 2⁶³+1, where about half the words are rejected,
// and Bool at both saturation points and in between. The final Next pins
// the number of words the draws consumed.
func TestXoshiroGoldenVector(t *testing.T) {
	x := NewXoshiro256(0x5eed)
	for i, want := range []uint64{0xef33f17055244b74, 0xe1f591112fb5051b, 0xd8ab05640214863a, 0xf985e1f2fb897b03} {
		if got := x.Next(); got != want {
			t.Fatalf("Next #%d = %#x, want %#x", i, got, want)
		}
	}
	for _, c := range []struct {
		n    uint64
		want [8]uint64
	}{
		{3, [8]uint64{2, 1, 0, 1, 2, 2, 0, 2}},
		{768 << 10, [8]uint64{425350, 243813, 478674, 194448, 440609, 403305, 235660, 602314}},
		{1536 << 10, [8]uint64{608394, 711237, 19972, 1288612, 5734, 1420548, 1411077, 191921}},
		{1<<63 + 1, [8]uint64{2343426197813832048, 6161897022253078975, 5633840813164590778, 2167746964974386708,
			4101175998211141093, 6984034539619314473, 3466501201066965166, 1554297778543538100}},
	} {
		for i, want := range c.want {
			if got := x.Uint64n(c.n); got != want {
				t.Fatalf("Uint64n(%d) #%d = %d, want %d", c.n, i, got, want)
			}
		}
	}
	for _, c := range []struct {
		p    float64
		want string
	}{
		{0, "0000000000000000"},
		{0.55, "0001011011000000"},
		{1, "1111111111111111"},
	} {
		got := make([]byte, len(c.want))
		for i := range got {
			got[i] = '0'
			if x.Bool(c.p) {
				got[i] = '1'
			}
		}
		if string(got) != c.want {
			t.Fatalf("Bool(%v) draws = %s, want %s", c.p, got, c.want)
		}
	}
	if got, want := x.Next(), uint64(0x6c54e9ca4dc8d786); got != want {
		t.Fatalf("Next after the draws = %#x, want %#x (a draw consumed a different number of words)", got, want)
	}
}
