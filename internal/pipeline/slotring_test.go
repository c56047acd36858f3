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

// probe books a slot the way the lane sweeps do: the inline first-cycle
// check, then takeLater.
func probe(rg *laneRings, port uint8, q, live uint64) uint64 {
	pm := uint32(0xff) << (8 * port)
	if s := rg.slot(q); q < rg.clearedTo && rg.fits(*s, pm) {
		*s += pm & sumBytes
		return q
	}
	return rg.takeLater(pm, q, live)
}

// TestLaneRingsMatchSlotRing drives the engine's packed slot words against
// a reference slotRing for issue bandwidth and one per port, probed and
// booked together as the reference step does, through the sweeps' probe. The dispatch floor
// advances monotonically, as fetch does, and every probe lands at or after
// it. The cases cover three regimes:
//
//   - grow: issue 3 over ports 2/1/2/2, through a live window up to 12000
//     cycles wide, three times initRing, so the rings must grow and
//     re-lay out their live cycles while every answer stays exact;
//   - port-bound: issue 8 over ports 1/2/1/1, so a port fills before the
//     issue slots do and the probe falls to the scan on the port alone;
//   - near-127: issue 127 over ports 127/126/125/124, with 128 probes
//     per floor cycle packed into the next three, so the issue count
//     keeps reaching 127, where the packed sum of the port bytes must not
//     carry.
//
// Every case keeps its live window under ringSize, where the engine and
// the reference agree exactly.
func TestLaneRingsMatchSlotRing(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		issue, intP, memP, mulP, fp int
		// Per step the floor advances one cycle with probability
		// 1/stride; a probe lands next(near) cycles past it, or, one time
		// in 64, next(far).
		stride, near, far uint64
		until             uint64 // the floor's last cycle
		grows             bool
	}{
		{"grow", 3, 2, 1, 2, 2, 2, 24, 12000, 4 * ringSize, true},
		{"port-bound", 8, 1, 2, 1, 1, 2, 12, 2000, 2 * ringSize, false},
		{"near-127", 127, 127, 126, 125, 124, 128, 3, 600, initRing, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IssueWidth, cfg.IntPorts, cfg.MemPorts, cfg.MulPorts, cfg.FPPorts = tc.issue, tc.intP, tc.memP, tc.mulP, tc.fp
			checkLane(0, cfg)
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
			var full int    // probes whose ready cycle was booked solid
			var peak uint32 // the largest issue count booked into a cycle
			for step := 0; live < tc.until; step++ {
				if next(tc.stride) == 0 {
					live++
				}
				// Most probes crowd in just past the floor, so slots fill and
				// a lost count would show; some reach far ahead, the way a
				// load's dependents wait out a long memory latency.
				q := live + next(tc.near)
				if next(64) == 0 {
					q = live + next(tc.far)
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
				if want != q {
					full++
				}
				if got := probe(&rg, p, q, live); got != want {
					t.Fatalf("step %d: probe(port %d, %d, live %d) = %d, want %d", step, p, q, live, got, want)
				}
				peak = max(peak, *rg.slot(want)*sumBytes>>24)
			}
			if full == 0 {
				t.Fatal("no probe found its ready cycle full; the scan path was not exercised")
			}
			if bound := min(tc.issue, tc.intP+tc.memP+tc.mulP+tc.fp); int(peak) != bound {
				t.Fatalf("cycles held at most %d issues, want %d: the issue bound was not reached", peak, bound)
			}
			if n := len(rg.slots); tc.grows && n <= initRing {
				t.Fatalf("rings stayed at %d cycles; the growth path was not exercised", n)
			}
		})
	}
}

// TestLaneRingsForgetALapBehind pins extend's whole-ring clear: when the
// dispatch floor jumps more than a lap past the zeroed horizon, as after a
// fetch stall longer than the ring, every slot's cycle is at least a lap
// old and the slot must read empty, even though no probe touched it since.
func TestLaneRingsForgetALapBehind(t *testing.T) {
	cfg := DefaultConfig()
	rg := newLaneRings(cfg)
	// Book every cycle of the first lap solid on the integer port.
	for c := uint64(0); c < initRing; c++ {
		for range cfg.IntPorts {
			if got := probe(&rg, 0, c, c); got != c {
				t.Fatalf("filling: probe(%d) = %d", c, got)
			}
		}
	}
	live := rg.clearedTo + 3*initRing + 100
	for c := live; c < live+initRing; c++ {
		if got := probe(&rg, 0, c, live); got != c {
			t.Fatalf("after the jump: probe(%d) = %d, want %d (a stale count survived)", c, got, c)
		}
	}
	if n := len(rg.slots); n != initRing {
		t.Fatalf("rings grew to %d cycles; a jump of the floor alone must not grow them", n)
	}
}
