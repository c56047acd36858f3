package workload

import (
	"testing"

	"branchsim/internal/trace"
)

func TestTwelveProfilesInSPECOrder(t *testing.T) {
	profs := Profiles()
	if len(profs) != 12 {
		t.Fatalf("got %d profiles, want 12", len(profs))
	}
	want := []string{"164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
		"197.parser", "252.eon", "253.perlbmk", "254.gap", "255.vortex",
		"256.bzip2", "300.twolf"}
	for i, p := range profs {
		if p.Name != want[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gzip"); !ok {
		t.Fatal("short name lookup failed")
	}
	if _, ok := ByName("300.twolf"); !ok {
		t.Fatal("full name lookup failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("bogus name matched")
	}
}

func TestDeterministicStreams(t *testing.T) {
	for _, prof := range Profiles()[:3] {
		a, b := New(prof), New(prof)
		var ia, ib trace.Inst
		for i := 0; i < 50000; i++ {
			if !a.Next(&ia) || !b.Next(&ib) {
				t.Fatal("stream ended")
			}
			if ia != ib {
				t.Fatalf("%s: streams diverge at %d: %+v vs %+v", prof.Name, i, ia, ib)
			}
		}
	}
}

func TestBranchRatioRealistic(t *testing.T) {
	for _, prof := range Profiles() {
		p := New(prof)
		insts, branches := trace.CountBranches(p, 300000)
		ratio := float64(branches) / float64(insts)
		// SPECint-like: conditional branches are 8-20% of instructions.
		if ratio < 0.06 || ratio > 0.25 {
			t.Errorf("%s: branch ratio %.3f out of range", prof.Name, ratio)
		}
	}
}

func TestTakenRateRealistic(t *testing.T) {
	for _, prof := range Profiles() {
		p := New(prof)
		var inst trace.Inst
		var taken, branches int64
		for i := 0; i < 300000; i++ {
			p.Next(&inst)
			if inst.Kind == trace.CondBranch {
				branches++
				if inst.Taken {
					taken++
				}
			}
		}
		rate := float64(taken) / float64(branches)
		if rate < 0.30 || rate > 0.80 {
			t.Errorf("%s: taken rate %.3f out of range", prof.Name, rate)
		}
	}
}

func TestCoverageNoAbsorption(t *testing.T) {
	// The phase scheduler must keep the walk visiting a large share of
	// static branches — the failure mode is absorption into a tiny
	// attractor.
	for _, prof := range Profiles() {
		p := New(prof)
		seen := map[uint64]bool{}
		var inst trace.Inst
		for i := 0; i < 2_000_000; i++ {
			p.Next(&inst)
			if inst.Kind == trace.CondBranch {
				seen[inst.PC] = true
			}
		}
		static := p.StaticBranches()
		if frac := float64(len(seen)) / float64(static); frac < 0.35 {
			t.Errorf("%s: only %.0f%% of %d static branches executed",
				prof.Name, 100*frac, static)
		}
	}
}

func TestClassSharesTrackMix(t *testing.T) {
	prof, _ := ByName("gzip")
	p := New(prof)
	var inst trace.Inst
	counts := map[string]int{}
	for i := 0; i < 1_000_000; i++ {
		p.Next(&inst)
		if inst.Kind == trace.CondBranch {
			if name, ok := p.BranchClassName(inst.PC); ok {
				counts[name]++
			}
		}
	}
	// Every class in the mix must appear dynamically.
	for c := 0; c < NumClasses; c++ {
		name := BranchClass(c).String()
		if prof.Mix[c] > 0 && counts[name] == 0 {
			t.Errorf("class %s has weight but never executes", name)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if rand := float64(counts[ClassRandom.String()]) / float64(total); rand > 3*prof.Mix[ClassRandom]+0.05 {
		t.Errorf("random class share %.3f wildly above weight %.3f", rand, prof.Mix[ClassRandom])
	}
}

func TestPCsWordAlignedAndInCode(t *testing.T) {
	prof, _ := ByName("gcc")
	p := New(prof)
	foot := p.CodeFootprint()
	var inst trace.Inst
	for i := 0; i < 200000; i++ {
		p.Next(&inst)
		if inst.PC%4 != 0 {
			t.Fatalf("unaligned PC %#x", inst.PC)
		}
		if inst.PC < 0x10000 || inst.PC >= 0x10000+foot {
			t.Fatalf("PC %#x outside code footprint", inst.PC)
		}
	}
}

func TestMemoryAddressesInRegions(t *testing.T) {
	prof, _ := ByName("mcf")
	p := New(prof)
	var inst trace.Inst
	for i := 0; i < 200000; i++ {
		p.Next(&inst)
		if inst.Kind != trace.Load && inst.Kind != trace.Store {
			continue
		}
		a := inst.Addr
		inHeap := a >= heapBase && a < heapBase+prof.WorkingSet
		inStack := a >= stackBase && a < stackBase+stackSize
		if !inHeap && !inStack {
			t.Fatalf("address %#x outside heap/stack", a)
		}
	}
}

func TestTargetsAreBlockStarts(t *testing.T) {
	prof, _ := ByName("vpr")
	p := New(prof)
	var inst trace.Inst
	starts := map[uint64]bool{}
	// Collect block starts by observing control flow for a while.
	for i := 0; i < 500000; i++ {
		p.Next(&inst)
		if (inst.Kind == trace.CondBranch && inst.Taken) || inst.Kind == trace.Jump {
			starts[inst.Target] = true
		}
	}
	if len(starts) < 50 {
		t.Fatalf("too few distinct targets: %d", len(starts))
	}
	for target := range starts {
		if target%4 != 0 {
			t.Fatalf("misaligned target %#x", target)
		}
	}
}

func TestRegisterOperandsValid(t *testing.T) {
	prof, _ := ByName("eon")
	p := New(prof)
	var inst trace.Inst
	for i := 0; i < 100000; i++ {
		p.Next(&inst)
		for _, r := range []int8{inst.Src1, inst.Src2, inst.Dst} {
			if r != trace.NoReg && (r < 0 || r >= trace.NumRegs) {
				t.Fatalf("register %d out of range", r)
			}
		}
		switch inst.Kind {
		case trace.Load:
			if inst.Dst == trace.NoReg {
				t.Fatal("load without destination")
			}
		case trace.Store, trace.CondBranch:
			if inst.Dst != trace.NoReg {
				t.Fatalf("%v with destination", inst.Kind)
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	prof, _ := ByName("gap")
	p := New(prof)
	var inst trace.Inst
	for i := 0; i < 1000; i++ {
		p.Next(&inst)
	}
	insts, branches, taken := p.Stats()
	if insts != 1000 {
		t.Fatalf("insts = %d", insts)
	}
	if branches == 0 || taken == 0 || taken > branches {
		t.Fatalf("branches %d taken %d", branches, taken)
	}
}

func TestCodeFootprintMatchesBlocks(t *testing.T) {
	for _, prof := range Profiles() {
		p := New(prof)
		// Footprint must scale with block count: at least 4 bytes per
		// block plus bodies.
		if p.CodeFootprint() < uint64(prof.Blocks)*4*uint64(prof.BlockLenMin+1) {
			t.Errorf("%s: footprint %d too small", prof.Name, p.CodeFootprint())
		}
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1-block profile")
		}
	}()
	New(Profile{Blocks: 1})
}

// TestNextInstsMatchesRecording pins Program's InstSource protocol: Next
// and NextInsts of ragged sizes, interleaved on one Program, must yield the
// stream trace.Record captures, across the recording's 64K-instruction
// chunk boundaries.
func TestNextInstsMatchesRecording(t *testing.T) {
	const n = 2<<16 + 321
	prof := Profiles()[0]
	want := trace.Record(New(prof), n).Replay()
	p := New(prof)
	var got, w trace.Inst
	batch := make([]trace.Inst, 1000)
	sizes := []int{1, 7, trace.InstBatchLen, 1000}
	for i, k := 0, 0; i < n; k++ {
		var insts []trace.Inst
		if k%2 == 0 {
			if !p.Next(&got) {
				t.Fatal("Next ended the stream")
			}
			insts = []trace.Inst{got}
		} else {
			size := min(sizes[k/2%len(sizes)], n-i)
			if m := p.NextInsts(batch[:size]); m != size {
				t.Fatalf("NextInsts filled %d of %d", m, size)
			}
			insts = batch[:size]
		}
		for _, inst := range insts {
			if !want.Next(&w) {
				t.Fatalf("recording ended at %d", i)
			}
			if inst != w {
				t.Fatalf("inst %d = %+v, want %+v", i, inst, w)
			}
			i++
		}
	}
}
