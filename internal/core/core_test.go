package core

import (
	"reflect"
	"testing"

	"branchsim/internal/counter"
	"branchsim/internal/predictor"
	"branchsim/internal/rng"
)

func train(p predictor.Predictor, next func(i int) (uint64, bool), n int) float64 {
	misses, measured := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := next(i)
		pred := p.Predict(pc)
		p.Update(pc, taken)
		if i >= n/2 {
			measured++
			if pred != taken {
				misses++
			}
		}
	}
	return float64(misses) / float64(measured)
}

func TestGShareFastLearnsBasics(t *testing.T) {
	g := New(Config{Entries: 1 << 14, Latency: 3})
	if rate := train(g, func(i int) (uint64, bool) { return 0x1000, i%5 != 4 }, 10000); rate > 0.05 {
		t.Fatalf("period-5 loop: %.3f", rate)
	}
}

func TestGShareFastTracksGShare(t *testing.T) {
	// On a correlated stream, gshare.fast must land near plain gshare:
	// the pipelined organization costs accuracy only through its stale
	// row address.
	stream := func() func(i int) (uint64, bool) {
		r := rng.NewXoshiro256(7)
		hist := uint64(0)
		return func(i int) (uint64, bool) {
			pc := uint64(0x1000 + (i%128)*4)
			taken := hist>>2&1 == 1
			if r.Bool(0.05) {
				taken = !taken
			}
			hist = hist<<1 | b2u(taken)
			return pc, taken
		}
	}
	fast := train(New(Config{Entries: 1 << 14, Latency: 4}), stream(), 60000)
	plain := train(predictor.NewGShare(1<<14, 0), stream(), 60000)
	if fast > plain+0.03 {
		t.Fatalf("gshare.fast %.3f much worse than gshare %.3f", fast, plain)
	}
}

func TestGShareFastLatencyInsensitiveWhenClean(t *testing.T) {
	// With one branch per cycle (internal clock), accuracy should barely
	// depend on the PHT read latency: the pipeline hides it.
	stream := func() func(i int) (uint64, bool) {
		r := rng.NewXoshiro256(9)
		hist := uint64(0)
		return func(i int) (uint64, bool) {
			pc := uint64(0x1000 + (i%64)*4)
			taken := hist>>1&1 == 1
			if r.Bool(0.04) {
				taken = !taken
			}
			hist = hist<<1 | b2u(taken)
			return pc, taken
		}
	}
	l1 := train(New(Config{Entries: 1 << 16, Latency: 1}), stream(), 60000)
	l9 := train(New(Config{Entries: 1 << 16, Latency: 9}), stream(), 60000)
	if l9 > l1+0.03 {
		t.Fatalf("latency 9 cost too much: %.3f vs %.3f", l9, l1)
	}
}

func TestGShareFastDelayedUpdateSmallCost(t *testing.T) {
	stream := func() func(i int) (uint64, bool) {
		r := rng.NewXoshiro256(3)
		hist := uint64(0)
		return func(i int) (uint64, bool) {
			pc := uint64(0x1000 + (i%256)*4)
			taken := hist>>3&1 == 1
			if r.Bool(0.03) {
				taken = !taken
			}
			hist = hist<<1 | b2u(taken)
			return pc, taken
		}
	}
	immediate := train(New(Config{Entries: 1 << 16, Latency: 3}), stream(), 80000)
	lagged := train(New(Config{Entries: 1 << 16, Latency: 3, UpdateLag: 64}), stream(), 80000)
	if lagged > immediate+0.02 {
		t.Fatalf("64-branch update lag cost too much: %.3f vs %.3f (paper: ~0.04pp)", lagged, immediate)
	}
}

func TestGShareFastFlush(t *testing.T) {
	g := New(Config{Entries: 1 << 10, Latency: 2, UpdateLag: 100})
	for i := 0; i < 50; i++ {
		g.Predict(0x1000)
		g.Update(0x1000, true)
	}
	// All 50 updates are still pending (lag 100): a fresh entry check —
	// prediction still cold.
	g.Flush()
	if !g.Predict(0x1000) {
		t.Fatal("after Flush the counters should predict taken")
	}
}

func TestGShareFastDeterministicWithClock(t *testing.T) {
	mk := func() *GShareFast { return New(Config{Entries: 1 << 12, Latency: 3}) }
	a, b := mk(), mk()
	r := rng.NewXoshiro256(5)
	for i := 0; i < 20000; i++ {
		cycle := uint64(i / 3)
		a.OnCycle(cycle)
		b.OnCycle(cycle)
		pc := uint64(0x1000 + r.Intn(64)*4)
		taken := r.Bool(0.7)
		if a.Predict(pc) != b.Predict(pc) {
			t.Fatalf("divergence at %d", i)
		}
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
}

func TestGShareFastBlockMatchesScalarForWidth1(t *testing.T) {
	scalar := New(Config{Entries: 1 << 12, Latency: 3})
	block := New(Config{Entries: 1 << 12, Latency: 3})
	r := rng.NewXoshiro256(6)
	for i := 0; i < 20000; i++ {
		pc := uint64(0x1000 + r.Intn(64)*4)
		taken := r.Bool(0.6)
		sp := scalar.Predict(pc)
		scalar.Update(pc, taken)
		bp := make([]bool, 1)
		block.StepBlock([]uint64{pc}, []bool{taken}, bp)
		if sp != bp[0] {
			t.Fatalf("scalar/block divergence at %d", i)
		}
	}
}

func TestGShareFastBlockSizing(t *testing.T) {
	g := New(Config{Entries: 1 << 16, Latency: 3})
	// §3.3.1: 8 branches per cycle at latency 3 needs at least 64
	// buffer entries; our minimum line is 2^bufBits.
	if got := g.BlockBufferEntries(8); got != 512 {
		t.Fatalf("BlockBufferEntries(8) = %d (want the 512-entry line minimum)", got)
	}
	g2 := New(Config{Entries: 1 << 16, Latency: 8})
	if got := g2.BlockBufferEntries(8); got != 8<<8 {
		t.Fatalf("BlockBufferEntries(8)@L8 = %d, want %d", got, 8<<8)
	}
	if g.BlockSizeBytes(8) <= g.SizeBytes() {
		t.Fatal("block configuration must cost extra state")
	}
}

func TestGShareFastConfigValidation(t *testing.T) {
	bad := []Config{
		{Entries: 100, Latency: 3},
		{Entries: 1024, Latency: 0},
		{Entries: 1024, Latency: 3, UpdateLag: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestGShareFastSizeAccounting(t *testing.T) {
	g := New(Config{Entries: 1 << 18, Latency: 4})
	phtBytes := (1 << 18) * 2 / 8
	if g.SizeBytes() <= phtBytes {
		t.Fatal("size must include buffer and checkpoint state")
	}
	if g.SizeBytes() > phtBytes+phtBytes/8 {
		t.Fatalf("overhead too large: %d vs PHT %d", g.SizeBytes(), phtBytes)
	}
}

func TestOverridingPredictsSlow(t *testing.T) {
	// Quick always-taken, slow always-not-taken: the organization's
	// prediction is the slow one, and every prediction is an override.
	o := NewOverriding(predictor.Taken{}, predictor.NotTaken{}, 4)
	for i := 0; i < 100; i++ {
		if o.Predict(0x1000) {
			t.Fatal("overriding must return the slow prediction")
		}
		overrode, bubble := o.LastOverrode()
		if !overrode || bubble != 3 {
			t.Fatalf("override %v bubble %d, want true/3", overrode, bubble)
		}
		o.Update(0x1000, false)
	}
	if o.OverrideRate() != 1 {
		t.Fatalf("override rate %v", o.OverrideRate())
	}
}

func TestOverridingLatency1NeverOverrides(t *testing.T) {
	o := NewOverriding(predictor.Taken{}, predictor.NotTaken{}, 1)
	o.Predict(0x1000)
	if overrode, _ := o.LastOverrode(); overrode {
		t.Fatal("latency-1 organization cannot override")
	}
	if o.OverrideRate() != 0 {
		t.Fatalf("override rate %v", o.OverrideRate())
	}
}

func TestOverridingTrainsBoth(t *testing.T) {
	quick := predictor.NewBimodal(64)
	slow := predictor.NewGShare(1024, 0)
	o := NewOverriding(quick, slow, 3)
	for i := 0; i < 200; i++ {
		o.Predict(0x1000)
		o.Update(0x1000, true)
	}
	if !quick.Predict(0x1000) || !slow.Predict(0x1000) {
		t.Fatal("both components must train")
	}
	// Once both agree, overrides stop.
	o.Predict(0x1000)
	if overrode, _ := o.LastOverrode(); overrode {
		t.Fatal("agreeing predictors should not override")
	}
}

func TestOverridingAgreementNoBubble(t *testing.T) {
	o := NewOverriding(predictor.Taken{}, predictor.Taken{}, 9)
	o.Predict(0x1000)
	if overrode, bubble := o.LastOverrode(); overrode || bubble != 0 {
		t.Fatalf("agreement gave override %v/%d", overrode, bubble)
	}
}

func TestOverridingSizeIsSlow(t *testing.T) {
	quick := predictor.NewGShare(2048, 0)
	slow := predictor.NewGShare(1<<18, 0)
	o := NewOverriding(quick, slow, 5)
	if o.SizeBytes() != slow.SizeBytes() {
		t.Fatal("budget accounting must cover the slow predictor only")
	}
	if o.QuickSizeBytes() != quick.SizeBytes() {
		t.Fatal("quick size accessor wrong")
	}
	if o.Latency() != 5 {
		t.Fatal("latency accessor wrong")
	}
}

func TestOverridingCountsMatch(t *testing.T) {
	r := rng.NewXoshiro256(11)
	quick := predictor.NewBimodal(512)
	slow := predictor.NewGShare(1<<14, 0)
	o := NewOverriding(quick, slow, 4)
	manual := 0
	for i := 0; i < 5000; i++ {
		pc := uint64(0x1000 + r.Intn(128)*4)
		q := quick.Predict(pc)
		s := slow.Predict(pc)
		o.Predict(pc)
		if q != s {
			manual++
		}
		o.Update(pc, r.Bool(0.5))
	}
	got, total := o.OverrideCount()
	if got != int64(manual) || total != 5000 {
		t.Fatalf("override count %d/%d, manual %d", got, total, manual)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestBiModeFastLearns(t *testing.T) {
	b := NewBiModeFast(BiModeFastConfig{DirEntries: 1 << 14, ChoiceEntries: 1024, Latency: 4})
	if rate := train(b, func(i int) (uint64, bool) { return 0x1000, i%5 != 4 }, 10000); rate > 0.05 {
		t.Fatalf("period-5 loop: %.3f", rate)
	}
}

func TestBiModeFastTracksBiMode(t *testing.T) {
	// The pipelined reorganization should land near the original bi-mode
	// on a mixed-bias stream.
	stream := func() func(i int) (uint64, bool) {
		r := rng.NewXoshiro256(8)
		hist := uint64(0)
		return func(i int) (uint64, bool) {
			pc := uint64(0x1000 + (i%200)*4)
			var taken bool
			switch (i % 200) % 3 {
			case 0:
				taken = r.Bool(0.95)
			case 1:
				taken = r.Bool(0.05)
			default:
				taken = hist>>2&1 == 1
			}
			hist = hist<<1 | b2u(taken)
			return pc, taken
		}
	}
	fast := train(NewBiModeFast(BiModeFastConfig{DirEntries: 1 << 14, ChoiceEntries: 1024, Latency: 4}), stream(), 60000)
	orig := train(predictor.NewBiMode(1024, 1<<14), stream(), 60000)
	if fast > orig+0.03 {
		t.Fatalf("bimode.fast %.3f much worse than bimode %.3f", fast, orig)
	}
}

func TestBiModeFastChoiceLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized choice table accepted")
		}
	}()
	NewBiModeFast(BiModeFastConfig{DirEntries: 1024, ChoiceEntries: 8192, Latency: 3})
}

func TestFastPipeIndexStability(t *testing.T) {
	// With a steady one-branch-per-cycle stream, the same (pc, history)
	// pair must map to the same index — determinism of the pipelined
	// index is what makes the scheme learnable.
	f := NewFastPipe(16, 4, 0)
	// Drive a repeating history pattern of period 8.
	pattern := []bool{true, true, false, true, false, false, true, false}
	idxSeen := map[uint64]int{}
	for rep := 0; rep < 200; rep++ {
		for pi, b := range pattern {
			key := uint64(pi)
			idx := f.Index(0x4000)
			if rep > 4 { // after warm-up the mapping must be stable
				if prev, ok := idxSeen[key]; ok && prev != idx {
					t.Fatalf("index for phase %d flapped: %d vs %d", pi, prev, idx)
				}
				idxSeen[key] = idx
			}
			f.Push(b)
		}
	}
}

func TestFastPipeValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewFastPipe(0, 3, 0) },
		func() { NewFastPipe(40, 3, 0) },
		func() { NewFastPipe(14, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid FastPipe accepted")
				}
			}()
			f()
		}()
	}
}

func TestFastPipeMatchesGShareFastIndexing(t *testing.T) {
	// FastPipe is the extracted gshare.fast machinery; the pre-FastPipe
	// gshare.fast (the test-only reference) and a FastPipe-backed
	// equivalent must predict identically under the same clock and
	// outcome stream.
	g := newRefGShareFast(Config{Entries: 1 << 14, Latency: 4})
	f := NewFastPipe(14, 4, 0)
	pht := counter.NewArray2(1<<14, counter.WeaklyNotTaken)
	r := rng.NewXoshiro256(13)
	for i := 0; i < 30000; i++ {
		cycle := uint64(i) / 2
		g.OnCycle(cycle)
		f.OnCycle(cycle)
		pc := uint64(0x1000 + r.Intn(96)*4)
		taken := r.Bool(0.65)
		gp := g.Predict(pc)
		fp := pht.Taken(f.Index(pc))
		if gp != fp {
			t.Fatalf("prediction divergence at %d", i)
		}
		g.Update(pc, taken)
		pht.Update(f.Index(pc), taken)
		f.Push(taken)
	}
}

// TestOverridingBatchEquivalence pins the overriding pair's batch path
// against OnCycle/Predict/Update/LastOverrode per branch: over uneven
// batches — empty, single-branch, across the 64-branch chunk edge, and
// full — with a cycle column, the batch path must give the same slow
// predictions and override flags, and leave OverrideCount and LastOverrode
// where the scalar protocol leaves them after every batch. StepBatch,
// which drops the flags, must keep the same state. The last pair forwards
// the column to a cycle-aware slow component through a stepper-less quick
// one.
func TestOverridingBatchEquivalence(t *testing.T) {
	pairs := []struct {
		name    string
		mk      func() *Overriding
		latency int
	}{
		{"gshare->2bcgskew", func() *Overriding {
			return NewOverriding(predictor.NewGShare(2048, 0), predictor.NewGSkew2BcFromBudget(16<<10), 3)
		}, 3},
		{"bimodal->perceptron", func() *Overriding {
			return NewOverriding(predictor.NewBimodal(512), predictor.NewPerceptronFromBudget(16<<10), 5)
		}, 5},
		{"gshare->multicomponent-lat1", func() *Overriding {
			return NewOverriding(predictor.NewGShare(2048, 0), predictor.NewMultiComponentFromBudget(16<<10), 1)
		}, 1},
		{"local->gshare.fast", func() *Overriding {
			return NewOverriding(predictor.NewLocalFromBudget(4<<10), New(Config{Entries: 1 << 12, Latency: 3}), 2)
		}, 2},
	}
	r := rng.NewXoshiro256(5)
	const n = 12_000
	pcs, takens, cycles := make([]uint64, n), make([]bool, n), make([]uint64, n)
	for i := range pcs {
		pcs[i] = uint64(0x4000 + r.Intn(512)*4)
		takens[i] = r.Bool(0.3 + 0.4*float64(pcs[i]>>2&1))
		cycles[i] = uint64(i+1) / 3
	}
	sizes := []int{0, 1, 63, 64, 65, 200, 256, 7, 129}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			scalar, batched, plain := pc.mk(), pc.mk(), pc.mk()
			preds, overrode, plainPreds := make([]bool, 256), make([]bool, 256), make([]bool, 256)
			var overrides int64
			for off, k := 0, 0; off < n; k++ {
				m := min(sizes[k%len(sizes)], n-off)
				batched.StepBatchOverrides(pcs[off:off+m], takens[off:off+m], cycles[off:off+m], preds, overrode)
				plain.StepBatch(pcs[off:off+m], takens[off:off+m], cycles[off:off+m], plainPreds)
				for i := 0; i < m; i++ {
					scalar.OnCycle(cycles[off+i])
					want := scalar.Predict(pcs[off+i])
					ov, bubble := scalar.LastOverrode()
					scalar.Update(pcs[off+i], takens[off+i])
					if preds[i] != want || plainPreds[i] != want || overrode[i] != ov {
						t.Fatalf("branch %d (batch %d of %d): batch predicts %v/%v override %v, scalar %v override %v",
							off+i, k, m, preds[i], plainPreds[i], overrode[i], want, ov)
					}
					if ov {
						overrides++
						if bubble != pc.latency-1 {
							t.Fatalf("bubble %d at latency %d", bubble, pc.latency)
						}
					}
				}
				for _, o := range []*Overriding{batched, plain} {
					if g, w := pack(o.OverrideCount()), pack(scalar.OverrideCount()); g != w {
						t.Fatalf("after batch %d: OverrideCount %v, scalar %v", k, g, w)
					}
					gov, gb := o.LastOverrode()
					wov, wb := scalar.LastOverrode()
					if gov != wov || gb != wb {
						t.Fatalf("after batch %d: LastOverrode %v/%d, scalar %v/%d", k, gov, gb, wov, wb)
					}
				}
				off += m
			}
			if pc.latency > 1 && overrides == 0 {
				t.Fatal("degenerate stream: no overrides")
			}
		})
	}
}

func pack(a, b int64) [2]int64 { return [2]int64{a, b} }

// TestNeedsClock pins which lanes the timing engine steps one branch at a
// time: cycle-aware predictors, and overriding pairs holding one.
func TestNeedsClock(t *testing.T) {
	gs := func() predictor.Predictor { return predictor.NewGShare(2048, 0) }
	fast := func() predictor.Predictor { return New(Config{Entries: 1 << 12, Latency: 3}) }
	cases := []struct {
		name string
		p    predictor.Predictor
		want bool
	}{
		{"gshare", gs(), false},
		{"perceptron", predictor.NewPerceptronFromBudget(4 << 10), false},
		{"local", predictor.NewLocalFromBudget(4 << 10), false},
		{"gshare.fast", fast(), true},
		{"nockpt", WithoutCheckpointing(New(Config{Entries: 1 << 12, Latency: 3})), true},
		{"bimodefast", NewBiModeFast(BiModeFastConfig{DirEntries: 1 << 14, ChoiceEntries: 2048, Latency: 3}), true},
		{"override", NewOverriding(gs(), predictor.NewGSkew2BcFromBudget(4<<10), 3), false},
		{"override-cycleaware-slow", NewOverriding(gs(), fast(), 3), true},
		{"override-cycleaware-quick", NewOverriding(fast(), gs(), 3), true},
		{"override-scalar-slow", NewOverriding(gs(), predictor.NewLocalFromBudget(4<<10), 3), false},
	}
	for _, c := range cases {
		if got := NeedsClock(c.p); got != c.want {
			t.Errorf("%s: NeedsClock %v, want %v", c.name, got, c.want)
		}
	}
}

// clockLog is a stepper-less cycle-aware predictor that records the
// clock it is announced: the user-predictor case of BatchStepperOf.
type clockLog struct {
	predictor.Taken
	log []uint64
}

func (c *clockLog) OnCycle(cycle uint64) { c.log = append(c.log, cycle) }

// TestBatchStepperOf pins the engines' stepper resolver: a predictor's own
// StepBatch is used as is, and a stepper-less one gets the per-branch
// adapter, which announces each column entry to a cycle-aware predictor
// before its Predict/Update pair and announces nothing without a column.
func TestBatchStepperOf(t *testing.T) {
	g := predictor.NewGShare(2048, 0)
	if s, ok := BatchStepperOf(g).(*predictor.GShare); !ok || s != g {
		t.Fatal("a native stepper must resolve to itself")
	}
	pcs, takens, preds := []uint64{0x1000, 0x1004, 0x1008}, []bool{true, false, true}, make([]bool, 3)
	c := &clockLog{}
	s := BatchStepperOf(c)
	s.StepBatch(pcs, takens, nil, preds)
	if len(c.log) != 0 {
		t.Fatalf("no column announced %v", c.log)
	}
	s.StepBatch(pcs, takens, []uint64{0, 4, 4}, preds)
	if !reflect.DeepEqual(c.log, []uint64{0, 4, 4}) || !preds[0] || !preds[1] || !preds[2] {
		t.Fatalf("adapter announced %v, predicted %v", c.log, preds)
	}
	// A stepper-less, cycle-oblivious kind matches its scalar protocol.
	batch, scalar := predictor.NewLocalFromBudget(4<<10), predictor.NewLocalFromBudget(4<<10)
	r := rng.NewXoshiro256(3)
	for k := 0; k < 50; k++ {
		pcs, takens, preds := make([]uint64, k), make([]bool, k), make([]bool, k)
		for i := range pcs {
			pcs[i], takens[i] = uint64(0x2000+r.Intn(32)*4), r.Bool(0.6)
		}
		BatchStepperOf(batch).StepBatch(pcs, takens, nil, preds)
		for i, pc := range pcs {
			if want := scalar.Predict(pc); preds[i] != want {
				t.Fatalf("batch %d branch %d: adapter %v, scalar %v", k, i, preds[i], want)
			}
			scalar.Update(pc, takens[i])
		}
	}
}
