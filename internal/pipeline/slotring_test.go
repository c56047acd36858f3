package pipeline

import "testing"

// refRing is the obviously-correct reference for slotRing: an unbounded
// per-cycle occupancy map.
type refRing struct {
	count map[uint64]uint16
	limit uint16
}

func (r *refRing) take(t uint64) uint64 {
	for r.count[t] >= r.limit {
		t++
	}
	r.count[t]++
	return t
}

func (r *refRing) peekFree(t uint64) uint64 {
	for r.count[t] >= r.limit {
		t++
	}
	return t
}

// TestSlotRingWraparound is a property test of slotRing against the map
// reference, driving the query point far past ringSize so every index wraps
// several times.
//
// The ring is exact under the simulator's window invariant: all queries
// live within a sliding window narrower than ringSize. The scoreboard
// guarantees this structurally — issue and commit cycles trail the fetch
// point by bounded latencies (ROB occupancy, execution latencies, redirect
// bubbles), all far smaller than ringSize — so when a query at cycle t
// lands on a slot whose stored cycle differs, that slot's last use is at
// least ringSize cycles stale and can never be queried again; treating it
// as free and overwriting it is exactly what the unbounded map would do.
func TestSlotRingWraparound(t *testing.T) {
	for _, limit := range []int{1, 2, 8} {
		ring := newSlotRing(limit)
		ref := refRing{count: map[uint64]uint16{}, limit: uint16(limit)}

		// A deterministic LCG drives a front that advances past 4×ringSize
		// with jittered queries trailing it, mixing take and peekFree —
		// the shape of the simulator's issue-port searches.
		rnd := uint64(0x9e3779b97f4a7c15)
		next := func(n uint64) uint64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return (rnd >> 33) % n
		}
		var front uint64
		steps := 0
		for front < 4*ringSize {
			front += next(64)
			// Queries sit in a window behind the front far narrower
			// than ringSize, per the invariant above.
			q := front + next(256)
			if front > 1024 {
				q = front - 1024 + next(1280)
			}
			if next(3) == 0 {
				got, want := ring.peekFree(q), ref.peekFree(q)
				if got != want {
					t.Fatalf("limit %d, step %d: peekFree(%d) = %d, want %d", limit, steps, q, got, want)
				}
			} else {
				got, want := ring.take(q), ref.take(q)
				if got != want {
					t.Fatalf("limit %d, step %d: take(%d) = %d, want %d", limit, steps, q, got, want)
				}
			}
			steps++
		}
		if front < 4*ringSize {
			t.Fatalf("limit %d: front only reached %d, wrap-around not exercised", limit, front)
		}
	}
}

// TestLaneRingsMatchSlotRing drives the engine's compact rings against a
// pair of reference slotRings — the issue ring and one port ring, probed
// and booked together as the reference step does — through a live window
// up to 12000 cycles wide, three times initRing, so the rings must grow
// and re-lay out their live cycles while every answer stays exact. The
// dispatch floor advances monotonically, as fetch does, and every probe
// lands at or after it.
func TestLaneRingsMatchSlotRing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssueWidth, cfg.IntPorts, cfg.MemPorts = 3, 2, 1
	rg := newLaneRings(cfg)
	issue := newSlotRing(cfg.IssueWidth)
	ports := [numPorts]slotRing{
		portInt: newSlotRing(cfg.IntPorts),
		portMem: newSlotRing(cfg.MemPorts),
		portMul: newSlotRing(cfg.MulPorts),
		portFP:  newSlotRing(cfg.FPPorts),
	}
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return (rnd >> 33) % n
	}
	var live uint64
	for step := 0; live < 4*ringSize; step++ {
		live += next(2)
		// Most probes crowd in just past the floor, so slots fill and a
		// lost count would show; some reach far ahead, the way a load's
		// dependents wait out a long memory latency.
		q := live + next(24)
		if next(64) == 0 {
			q = live + next(12000)
		}
		p := uint8(next(numPorts))
		want := q
		for {
			t := ports[p].peekFree(issue.peekFree(want))
			if t == want {
				break
			}
			want = t
		}
		issue.take(want)
		ports[p].take(want)
		if got := rg.takeInBoth(p, q, live); got != want {
			t.Fatalf("step %d: takeInBoth(port %d, %d, live %d) = %d, want %d", step, p, q, live, got, want)
		}
	}
	if n := len(rg.words) * 8; n <= initRing {
		t.Fatalf("rings stayed at %d cycles; the growth path was not exercised", n)
	}
}
