package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 3, 2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{2, 7}, 0.75, 4.5, 8.25},
		{[]float64{3.1, 1.7, 9.4, 2.2, 5.5, 6.0, 0.3, 8.8, 4.1, 7.7}, 2.075, 4.8, 7.9750000000000005},
		{[]float64{6}, 6, 6, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quartiles reordered its input: %v", xs)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
