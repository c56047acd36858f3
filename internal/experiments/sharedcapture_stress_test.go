package experiments

import (
	"sync/atomic"
	"testing"
)

// TestRunCellsSharedCaptureStress is the -race runtime twin of the
// sharedcapture analyzer (internal/analysis): the analyzer proves
// statically that RunCells' worker goroutines capture nothing written but
// channels, function values and sync/atomic values, and this test runs
// cells in that vocabulary under the race detector. The seen slice is the
// grids' fan-in shape (each cell owns one element); sum is the atomic
// shape.
func TestRunCellsSharedCaptureStress(t *testing.T) {
	const n = 2048
	var sum atomic.Int64
	seen := make([]bool, n)
	var cells []PlannedCell
	for i := 0; i < n; i++ {
		cells = append(cells, PlannedCell{Key: "test|stress", Run: func() {
			sum.Add(int64(i))
			seen[i] = true
		}})
	}
	RunCells(16, cells)
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
}
