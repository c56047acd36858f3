package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "replay", Parent: -1, Start: 0, End: 100},
		{Name: "job", Parent: 0, Start: 10, End: 60},    // overlaps the next job
		{Name: "job", Parent: 0, Start: 40, End: 90},    // union with it: 10..90
		{Name: "record", Parent: 1, Start: 10, End: 30}, // leaves 30 of job 1
		{Name: "run", Parent: 1, Start: 20, End: 50},    // overlaps record
		{Name: "late", Parent: 2, Start: 80, End: 120},  // clipped to its parent's end
	}
	want := []int64{20, 10, 40, 20, 30, 40}
	self := selfTimes(spans)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	if c := covered(spans, 0); c != 80 {
		t.Errorf("covered(replay) = %d, want 80", c)
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{5, 8}, {0, 2}}, 0, 10, 5},
		{[][2]int64{{0, 5}, {5, 9}}, 0, 10, 9},
		{[][2]int64{{0, 10}, {2, 3}}, 0, 10, 10},
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},
		{[][2]int64{{12, 15}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionLength(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestPerUnit(t *testing.T) {
	spans := []span{
		{Name: "trace.record", Parent: -1, Start: 0, End: 300, Work: 100},
		{Name: "trace.record", Parent: -1, Start: 300, End: 400, Work: 100},
		{Name: "idle", Parent: -1, Start: 400, End: 500},
	}
	self := selfTimes(spans)
	if v, ok := perUnit(spans, self, "trace.record"); !ok || v != 2 {
		t.Errorf("perUnit(trace.record) = %v, %v; want 2, true", v, ok)
	}
	if _, ok := perUnit(spans, self, "idle"); ok {
		t.Error("perUnit of a span with no work reported a value")
	}
}
