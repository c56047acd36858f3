package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer started, the span that caused it (-1 for a
// root) and the units of work the call did (instructions, branches,
// lane-instructions or cells; 1 for a call counted as itself).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Work   float64 `json:"work"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id, crediting it with work units.
func (t *tracer) end(id int, work float64) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.spans[id].Work = work
}

// timed runs f as one span.
func (t *tracer) timed(name string, parent int, work float64, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id, work)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover: the length of the union of their
// intervals, clipped to the parent's, so overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - unionLength(children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals of span id's
// children: the time during which at least one of them was running.
func covered(spans []span, id int) int64 {
	var ivs [][2]int64
	for _, s := range spans {
		if s.Parent == id {
			ivs = append(ivs, [2]int64{s.Start, s.End})
		}
	}
	return unionLength(ivs, spans[id].Start, spans[id].End)
}

// unionLength returns the length of the union of ivs after clipping each
// interval to [lo, hi].
func unionLength(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	for i, iv := range clipped {
		switch {
		case i == 0 || iv[0] > end:
			total += iv[1] - iv[0]
			end = iv[1]
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// perUnit sums the self time and the work of every span named name and
// returns self nanoseconds per unit of work; ok is false when no span of
// that name did any work.
func perUnit(spans []span, self []int64, name string) (nsPerUnit float64, ok bool) {
	var ns int64
	var work float64
	for i, s := range spans {
		if s.Name == name {
			ns += self[i]
			work += s.Work
		}
	}
	if work == 0 {
		return 0, false
	}
	return float64(ns) / work, true
}
