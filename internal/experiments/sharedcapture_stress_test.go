package experiments

import (
	"sync"
	"testing"
)

// TestRunCellsSharedCaptureStress is the -race runtime twin of the
// sharedcapture analyzer (internal/analysis): the scheduler's worker
// goroutines capture shared mutable state from the parent, and the
// discipline the analyzer proves statically — every access to a written
// capture is lock-dominated or element-disjoint — is exercised here
// dynamically under the race detector. The seen slice is the grids'
// fan-in shape (each cell owns one element); sum is the lock-guarded
// shape.
func TestRunCellsSharedCaptureStress(t *testing.T) {
	const n = 2048
	var mu sync.Mutex
	sum := 0
	seen := make([]bool, n)
	var cells []PlannedCell
	for i := 0; i < n; i++ {
		cells = append(cells, PlannedCell{Key: "test|stress", Run: func() {
			mu.Lock()
			sum += i
			mu.Unlock()
			seen[i] = true
		}})
	}
	RunCells(16, cells)
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
}
