package predictor

import (
	"strings"
	"testing"

	"branchsim/internal/rng"
)

// all returns one instance of every predictor at a 16KB-ish budget.
func all() []Predictor {
	return []Predictor{
		Taken{},
		NotTaken{},
		NewBimodalFromBudget(16 << 10),
		NewGShareFromBudget(16 << 10),
		NewGSelectFromBudget(16 << 10),
		NewBiModeFromBudget(16 << 10),
		NewLocalFromBudget(16 << 10),
		NewEV6FromBudget(16 << 10),
		NewGSkew2BcFromBudget(16 << 10),
		NewMultiComponentFromBudget(16 << 10),
		NewPerceptronFromBudget(16 << 10),
		NewYAGSFromBudget(16 << 10),
		NewAgreeFromBudget(16 << 10),
	}
}

// train runs a synthetic branch stream through p and returns the
// misprediction rate over the last half.
func train(p Predictor, next func(i int) (pc uint64, taken bool), n int) float64 {
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

func TestAllLearnAlwaysTaken(t *testing.T) {
	for _, p := range all() {
		if _, ok := p.(NotTaken); ok {
			continue
		}
		rate := train(p, func(int) (uint64, bool) { return 0x1000, true }, 1000)
		if rate > 0.01 {
			t.Errorf("%s: %.3f misprediction on always-taken branch", p.Name(), rate)
		}
	}
}

func TestAllLearnAlternating(t *testing.T) {
	// T,N,T,N is trivially captured by one bit of any history; the
	// bimodal and static predictors are exempt (they cannot).
	for _, p := range all() {
		switch p.(type) {
		case Taken, NotTaken, *Bimodal:
			continue
		}
		rate := train(p, func(i int) (uint64, bool) { return 0x1000, i%2 == 0 }, 4000)
		if rate > 0.05 {
			t.Errorf("%s: %.3f misprediction on alternating branch", p.Name(), rate)
		}
	}
}

func TestAllLearnShortLoop(t *testing.T) {
	// A loop taken 4 of 5 iterations; period 5 fits in every dynamic
	// predictor's history.
	for _, p := range all() {
		switch p.(type) {
		case Taken, NotTaken, *Bimodal:
			continue
		}
		rate := train(p, func(i int) (uint64, bool) { return 0x2000, i%5 != 4 }, 10000)
		if rate > 0.05 {
			t.Errorf("%s: %.3f misprediction on period-5 loop", p.Name(), rate)
		}
	}
}

func TestGShareLearnsCorrelation(t *testing.T) {
	// Branch B copies the previous outcome of branch A; a global-history
	// predictor must learn it, a bimodal cannot.
	r := rng.NewXoshiro256(1)
	var lastA bool
	stream := func(i int) (uint64, bool) {
		if i%2 == 0 {
			lastA = r.Bool(0.5)
			return 0x1000, lastA
		}
		return 0x2000, lastA
	}
	g := NewGShare(4096, 0)
	misses, measured := 0, 0
	for i := 0; i < 20000; i++ {
		pc, taken := stream(i)
		pred := g.Predict(pc)
		g.Update(pc, taken)
		if i >= 10000 && pc == 0x2000 {
			measured++
			if pred != taken {
				misses++
			}
		}
	}
	if rate := float64(misses) / float64(measured); rate > 0.02 {
		t.Fatalf("gshare failed to learn copy correlation: %.3f", rate)
	}
}

func TestPerceptronLearnsLongCorrelation(t *testing.T) {
	// Outcome copies the branch outcome 20 branches back — beyond a
	// 12-bit gshare history, within a 34-bit perceptron history.
	r := rng.NewXoshiro256(2)
	var hist []bool
	stream := func(i int) (uint64, bool) {
		pc := uint64(0x1000 + (i%25)*4)
		var taken bool
		if i%25 == 24 {
			pc = 0x8000
			taken = hist[len(hist)-20]
		} else {
			taken = r.Bool(0.5)
		}
		hist = append(hist, taken)
		return pc, taken
	}
	p := NewPerceptron(PerceptronConfig{Entries: 128, GlobalBits: 34})
	g := NewGShare(4096, 12)
	var pMiss, gMiss, measured int
	for i := 0; i < 120000; i++ {
		pc, taken := stream(i)
		pp := p.Predict(pc)
		gp := g.Predict(pc)
		p.Update(pc, taken)
		g.Update(pc, taken)
		if i >= 60000 && pc == 0x8000 {
			measured++
			if pp != taken {
				pMiss++
			}
			if gp != taken {
				gMiss++
			}
		}
	}
	pRate := float64(pMiss) / float64(measured)
	gRate := float64(gMiss) / float64(measured)
	if pRate > 0.15 {
		t.Fatalf("perceptron failed long correlation: %.3f", pRate)
	}
	if gRate < 2*pRate {
		t.Fatalf("short-history gshare unexpectedly matched perceptron: %.3f vs %.3f", gRate, pRate)
	}
}

func TestPerceptronCannotLearnXor(t *testing.T) {
	// Outcome = xor of the last two outcomes of two random branches:
	// not linearly separable, so the perceptron must do poorly while a
	// pattern table learns it.
	r := rng.NewXoshiro256(3)
	var a, b bool
	stream := func(i int) (uint64, bool) {
		switch i % 3 {
		case 0:
			a = r.Bool(0.5)
			return 0x1000, a
		case 1:
			b = r.Bool(0.5)
			return 0x2000, b
		default:
			return 0x3000, a != b
		}
	}
	p := NewPerceptron(PerceptronConfig{Entries: 128, GlobalBits: 16})
	g := NewGShare(4096, 0)
	var pMiss, gMiss, measured int
	for i := 0; i < 60000; i++ {
		pc, taken := stream(i)
		pp := p.Predict(pc)
		gp := g.Predict(pc)
		p.Update(pc, taken)
		g.Update(pc, taken)
		if i >= 30000 && pc == 0x3000 {
			measured++
			if pp != taken {
				pMiss++
			}
			if gp != taken {
				gMiss++
			}
		}
	}
	pRate := float64(pMiss) / float64(measured)
	gRate := float64(gMiss) / float64(measured)
	if gRate > 0.05 {
		t.Fatalf("gshare failed XOR: %.3f", gRate)
	}
	if pRate < 0.25 {
		t.Fatalf("perceptron learned XOR (%.3f) — it should not be able to", pRate)
	}
}

func TestLocalLearnsPerBranchPattern(t *testing.T) {
	// Two interleaved branches with different periodic patterns; local
	// history separates them even though global history interleaves.
	r := rng.NewXoshiro256(4)
	var i1, i2 int
	// Note the PCs: they must not alias in the 1024-entry local history
	// table ((pc>>2) mod 1024 must differ).
	stream := func(i int) (uint64, bool) {
		if r.Bool(0.5) {
			i1++
			return 0x1004, i1%3 != 0
		}
		i2++
		return 0x2008, i2%4 != 0
	}
	l := NewLocal(1024, 10, 2)
	rate := train(l, stream, 40000)
	if rate > 0.03 {
		t.Fatalf("local predictor failed per-branch patterns: %.3f", rate)
	}
}

func TestSizeBytesWithinBudget(t *testing.T) {
	for _, budget := range []int{2 << 10, 16 << 10, 64 << 10, 512 << 10} {
		for name, build := range map[string]func(int) Predictor{
			"bimodal":    func(b int) Predictor { return NewBimodalFromBudget(b) },
			"gshare":     func(b int) Predictor { return NewGShareFromBudget(b) },
			"gselect":    func(b int) Predictor { return NewGSelectFromBudget(b) },
			"bimode":     func(b int) Predictor { return NewBiModeFromBudget(b) },
			"local":      func(b int) Predictor { return NewLocalFromBudget(b) },
			"2bcgskew":   func(b int) Predictor { return NewGSkew2BcFromBudget(b) },
			"perceptron": func(b int) Predictor { return NewPerceptronFromBudget(b) },
			"yags":       func(b int) Predictor { return NewYAGSFromBudget(b) },
			"agree":      func(b int) Predictor { return NewAgreeFromBudget(b) },
		} {
			p := build(budget)
			size := p.SizeBytes()
			// Power-of-two tables: realized size within (budget/2,
			// ~1.1*budget].
			if size > budget+budget/8 || size <= budget/4 {
				t.Errorf("%s at %d: realized %d bytes", name, budget, size)
			}
		}
		// The multi-component hybrid intentionally overshoots (the
		// paper's MC budgets are odd sizes); just bound it.
		mc := NewMultiComponentFromBudget(budget)
		if s := mc.SizeBytes(); s < budget/2 || s > 2*budget {
			t.Errorf("multicomponent at %d: realized %d bytes", budget, s)
		}
	}
}

func TestBudgetMonotoneAccuracy(t *testing.T) {
	// On an alias-heavy stream, a bigger gshare must not be
	// (significantly) worse.
	stream := func() func(i int) (uint64, bool) {
		r := rng.NewXoshiro256(9)
		hist := uint64(0)
		return func(i int) (uint64, bool) {
			pc := uint64(0x1000 + (i%512)*4)
			taken := hist>>3&1 == 1
			if r.Bool(0.1) {
				taken = !taken
			}
			hist = hist<<1 | b2u(taken)
			return pc, taken
		}
	}
	small := train(NewGShare(1<<10, 0), stream(), 100000)
	large := train(NewGShare(1<<16, 0), stream(), 100000)
	if large > small+0.01 {
		t.Fatalf("bigger gshare worse: %.3f vs %.3f", large, small)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestDeterminism(t *testing.T) {
	for _, mk := range []func() Predictor{
		func() Predictor { return NewGShareFromBudget(8 << 10) },
		func() Predictor { return NewGSkew2BcFromBudget(8 << 10) },
		func() Predictor { return NewMultiComponentFromBudget(8 << 10) },
		func() Predictor { return NewPerceptronFromBudget(8 << 10) },
		func() Predictor { return NewEV6FromBudget(8 << 10) },
	} {
		a, b := mk(), mk()
		r := rng.NewXoshiro256(5)
		for i := 0; i < 5000; i++ {
			pc := uint64(0x1000 + r.Intn(256)*4)
			taken := r.Bool(0.6)
			if a.Predict(pc) != b.Predict(pc) {
				t.Fatalf("%s: divergent predictions at %d", a.Name(), i)
			}
			a.Update(pc, taken)
			b.Update(pc, taken)
		}
	}
}

func TestNamesAndSizes(t *testing.T) {
	for _, p := range all() {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
		if p.SizeBytes() < 0 {
			t.Errorf("%s: negative size", p.Name())
		}
	}
}

func TestDelayFootprints(t *testing.T) {
	for _, p := range all() {
		df, ok := p.(DelayFootprint)
		if !ok {
			continue
		}
		bytes, entries := df.LargestTable()
		if bytes <= 0 || entries <= 0 {
			t.Errorf("%s: degenerate footprint %d/%d", p.Name(), bytes, entries)
		}
		if bytes > p.SizeBytes() {
			t.Errorf("%s: largest table %d exceeds total %d", p.Name(), bytes, p.SizeBytes())
		}
	}
}

func TestInvalidConstructions(t *testing.T) {
	cases := []func(){
		func() { NewBimodal(100) },
		func() { NewGShare(100, 0) },
		func() { NewGSelect(0, 5) },
		func() { NewBiMode(100, 128) },
		func() { NewGSkew2Bc(100) },
		func() { NewMultiComponent(MCConfig{ComponentEntries: 128}) },
		func() { NewPerceptron(PerceptronConfig{Entries: 0, GlobalBits: 10}) },
		func() { NewPerceptron(PerceptronConfig{Entries: 10, GlobalBits: 0}) },
		// Wider than the 64-lane weight planes.
		func() { NewPerceptron(PerceptronConfig{Entries: 10, GlobalBits: 60, LocalBits: 10}) },
		func() { NewMultiComponent(mcConfigWith(func(c *MCConfig) { c.ComponentEntries = 1 })) },
		func() { NewMultiComponent(mcConfigWith(func(c *MCConfig) { c.HistoryLengths = []uint{8, 4} })) },
		func() { NewMultiComponent(mcConfigWith(func(c *MCConfig) { c.HistoryLengths = []uint{0, 4} })) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
	// The too-wide perceptron names itself and its configuration.
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "predictor: ") || !strings.Contains(msg, "GlobalBits:60 LocalBits:10") {
				t.Errorf("too-wide perceptron panicked with %q", msg)
			}
		}()
		NewPerceptron(PerceptronConfig{Entries: 10, GlobalBits: 60, LocalBits: 10})
	}()
}

// mcConfigWith returns a valid multi-component configuration with one
// change applied.
func mcConfigWith(change func(*MCConfig)) MCConfig {
	cfg := MCConfig{BimodalEntries: 64, ComponentEntries: 64, HistoryLengths: []uint{4, 8}, SelectorEntries: 64}
	change(&cfg)
	return cfg
}

func TestEV6ChooserMigration(t *testing.T) {
	// A branch with a local pattern that global history cannot see
	// (interleaved with random branches) must migrate to the local
	// component.
	e := NewEV6(Alpha21264)
	r := rng.NewXoshiro256(6)
	cnt := 0
	rate := train(e, func(i int) (uint64, bool) {
		if i%2 == 0 {
			return uint64(0x4000 + r.Intn(64)*4), r.Bool(0.5)
		}
		cnt++
		return 0x1000, cnt%2 == 0
	}, 40000)
	// Half the stream is pure noise (50% floor on those); the patterned
	// branch should be nearly perfect, so overall ≈ 25%.
	if rate > 0.30 {
		t.Fatalf("EV6 failed to exploit local component: %.3f", rate)
	}
}

func TestYAGSExceptionCaching(t *testing.T) {
	// A strongly taken-biased branch with one history context in which it
	// is always not taken: the choice PHT learns the bias, the NT-cache
	// learns the exception.
	y := NewYAGS(1024, 1024)
	r := rng.NewXoshiro256(12)
	var last bool
	rate := train(y, func(i int) (uint64, bool) {
		if i%2 == 0 {
			last = r.Bool(0.5)
			return 0x2000, last
		}
		// Taken unless the previous branch was taken.
		return 0x1000, !last
	}, 40000)
	// The 0x2000 branch is pure noise (50%); 0x1000 must be ~perfect.
	if rate > 0.28 {
		t.Fatalf("YAGS failed exception pattern: %.3f", rate)
	}
}

func TestAgreeBiasLatching(t *testing.T) {
	a := NewAgree(1024, 1024)
	// First outcome not-taken latches bias; thereafter all not-taken.
	rate := train(a, func(i int) (uint64, bool) { return 0x1004, false }, 2000)
	if rate > 0.01 {
		t.Fatalf("agree failed steady branch: %.3f", rate)
	}
}

func TestAgreeConstructiveAliasing(t *testing.T) {
	// Two opposite-biased branches sharing PHT entries: a plain gshare
	// with a tiny table suffers destructive aliasing; agree does not,
	// because both branches "agree" with their own biases.
	mkStream := func() func(i int) (uint64, bool) {
		return func(i int) (uint64, bool) {
			if i%2 == 0 {
				return 0x1004, true
			}
			return 0x1008, false
		}
	}
	ag := train(NewAgree(16, 1024), mkStream(), 10000)
	if ag > 0.02 {
		t.Fatalf("agree suffered aliasing: %.3f", ag)
	}
}
