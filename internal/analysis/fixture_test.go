package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes standard-library type-checking across fixture
// tests; fixture packages get distinct synthetic import paths.
var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLoader
}

// wantRe matches expectation comments in fixtures: // want "substring"
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectations returns line → wanted message substring for one package.
func expectations(pkg *Package) map[string]map[int]string {
	wants := map[string]map[int]string{}
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if wants[pos.Filename] == nil {
					wants[pos.Filename] = map[int]string{}
				}
				wants[pos.Filename][pos.Line] = m[1]
			}
		}
	}
	return wants
}

// checkFixture loads dir under importPath, runs exactly one analyzer, and
// verifies the findings match the fixture's want comments one-for-one.
func checkFixture(t *testing.T, a *Analyzer, dir, importPath string) (nfindings int) {
	t.Helper()
	loader := fixtureLoader(t)
	pkg, err := loader.LoadDirAs(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants := expectations(pkg)
	findings := Run(pkg, "branchsim", []*Analyzer{a})

	matched := map[string]map[int]bool{}
	for _, f := range findings {
		want, ok := wants[f.Pos.Filename][f.Pos.Line]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding at %s does not contain %q: %s", f.Pos, want, f.Message)
		}
		if matched[f.Pos.Filename] == nil {
			matched[f.Pos.Filename] = map[int]bool{}
		}
		matched[f.Pos.Filename][f.Pos.Line] = true
	}
	for file, lines := range wants {
		for line, want := range lines {
			if !matched[file][line] {
				t.Errorf("missing finding at %s:%d (want %q)", file, line, want)
			}
		}
	}
	return len(findings)
}

// testAnalyzer exercises one analyzer on its bad (≥1 true positive) and
// good (clean pass) fixtures.
func testAnalyzer(t *testing.T, a *Analyzer, pathPrefix string) {
	t.Helper()
	t.Run("bad", func(t *testing.T) {
		dir := filepath.Join("testdata", a.Name, "bad")
		n := checkFixture(t, a, dir, fmt.Sprintf("%s/%sbad", pathPrefix, a.Name))
		if n == 0 {
			t.Fatalf("%s produced no findings on its known-bad fixture", a.Name)
		}
	})
	t.Run("good", func(t *testing.T) {
		dir := filepath.Join("testdata", a.Name, "good")
		if n := checkFixture(t, a, dir, fmt.Sprintf("%s/%sgood", pathPrefix, a.Name)); n != 0 {
			t.Fatalf("%s produced %d findings on its known-good fixture", a.Name, n)
		}
	})
}

func TestDeterminism(t *testing.T) { testAnalyzer(t, Determinism, "branchsim/internal") }

// TestDeterminismCoversTraceRecording pins the analyzer's reach over the
// record/replay layer: recordings are memoized by (profile, seed, budget)
// and substituted for live generation across the whole experiment grid, so
// internal/trace and internal/tracestore must stay inside the determinism
// gate — and so must internal/funcsim, whose batched branch fast path
// carries the accuracy grids, and internal/pipeline and
// internal/experiments, whose batched/sidecar/memoized timing fast path
// carries the IPC grids. The bad fixture is mounted at each real import
// path and must keep producing findings there. A private loader keeps
// these synthetic packages out of the shared cache, where they would
// shadow the real ones for the self-host test.
func TestDeterminismCoversTraceRecording(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, importPath := range []string{
		"branchsim/internal/trace",
		"branchsim/internal/tracestore",
		"branchsim/internal/funcsim",
		"branchsim/internal/pipeline",
		"branchsim/internal/experiments",
	} {
		t.Run(importPath, func(t *testing.T) {
			dir := filepath.Join("testdata", "determinism", "bad")
			pkg, err := loader.LoadDirAs(dir, importPath)
			if err != nil {
				t.Fatalf("loading %s as %s: %v", dir, importPath, err)
			}
			if fs := Run(pkg, "branchsim", []*Analyzer{Determinism}); len(fs) == 0 {
				t.Fatalf("determinism produced no findings under %s", importPath)
			}
		})
	}
}
func TestPanicMsg(t *testing.T)  { testAnalyzer(t, PanicMsg, "branchsim/internal") }
func TestSizeBytes(t *testing.T) { testAnalyzer(t, SizeBytes, "branchsim/internal") }
func TestPow2Mask(t *testing.T)  { testAnalyzer(t, Pow2Mask, "branchsim/internal") }

// FloatCmp only fires inside internal/stats and internal/experiments, so
// its fixtures mount there; a third pass proves the path gate by running
// the bad fixture under a path the analyzer ignores.
func TestFloatCmp(t *testing.T) {
	testAnalyzer(t, FloatCmp, "branchsim/internal/stats")
	t.Run("ungated-path", func(t *testing.T) {
		dir := filepath.Join("testdata", "floatcmp", "bad")
		pkg, err := fixtureLoader(t).LoadDirAs(dir, "branchsim/internal/predictor/floatfix")
		if err != nil {
			t.Fatal(err)
		}
		if fs := Run(pkg, "branchsim", []*Analyzer{FloatCmp}); len(fs) != 0 {
			t.Fatalf("floatcmp fired outside its gated packages: %v", fs)
		}
	})
}

func TestLockGuard(t *testing.T) { testAnalyzer(t, LockGuard, "branchsim/internal") }

func TestFrozen(t *testing.T)        { testAnalyzer(t, Frozen, "branchsim/internal") }
func TestSharedCapture(t *testing.T) { testAnalyzer(t, SharedCapture, "branchsim/internal") }
func TestOncePublish(t *testing.T)   { testAnalyzer(t, OncePublish, "branchsim/internal") }
func TestMapOrder(t *testing.T)      { testAnalyzer(t, MapOrder, "branchsim/internal") }

// GlobalState only fires in the hot shared packages, so its fixtures mount
// under internal/pipeline; a third pass proves the path gate by mounting
// the bad fixture under a path the analyzer ignores.
func TestGlobalState(t *testing.T) {
	testAnalyzer(t, GlobalState, "branchsim/internal/pipeline")
	t.Run("ungated-path", func(t *testing.T) {
		dir := filepath.Join("testdata", "globalstate", "bad")
		pkg, err := fixtureLoader(t).LoadDirAs(dir, "branchsim/internal/predictor/globalfix")
		if err != nil {
			t.Fatal(err)
		}
		if fs := Run(pkg, "branchsim", []*Analyzer{GlobalState}); len(fs) != 0 {
			t.Fatalf("globalstate fired outside its gated packages: %v", fs)
		}
	})
}

// SwitchEnum only fires in trace, funcsim and pipeline (by import path
// leaf), so its fixtures mount under synthetic paths ending in /pipeline;
// a third pass proves the gate by mounting the bad fixture elsewhere.
func TestSwitchEnum(t *testing.T) {
	t.Run("bad", func(t *testing.T) {
		dir := filepath.Join("testdata", "switchenum", "bad")
		if n := checkFixture(t, SwitchEnum, dir, "branchsim/internal/enumbad/pipeline"); n == 0 {
			t.Fatal("switchenum produced no findings on its known-bad fixture")
		}
	})
	t.Run("good", func(t *testing.T) {
		dir := filepath.Join("testdata", "switchenum", "good")
		if n := checkFixture(t, SwitchEnum, dir, "branchsim/internal/enumgood/pipeline"); n != 0 {
			t.Fatalf("switchenum produced %d findings on its known-good fixture", n)
		}
	})
	t.Run("ungated-path", func(t *testing.T) {
		dir := filepath.Join("testdata", "switchenum", "bad")
		pkg, err := fixtureLoader(t).LoadDirAs(dir, "branchsim/internal/predictor/enumfix")
		if err != nil {
			t.Fatal(err)
		}
		if fs := Run(pkg, "branchsim", []*Analyzer{SwitchEnum}); len(fs) != 0 {
			t.Fatalf("switchenum fired outside its gated packages: %v", fs)
		}
	})
}

// TestAllowDirectiveScope verifies a directive only suppresses the named
// analyzer: the determinism bad fixture keeps all its findings when the
// directive in it names nothing relevant (there is none), and the good
// fixture's os.Getenv is suppressed by name.
func TestAllowDirectiveScope(t *testing.T) {
	dir := filepath.Join("testdata", "determinism", "good")
	pkg, err := fixtureLoader(t).LoadDirAs(dir, "branchsim/internal/allowscope")
	if err != nil {
		t.Fatal(err)
	}
	// PanicMsg is not named by the fixture's directive; running it must not
	// be affected by the determinism allow (it finds nothing here anyway,
	// but the determinism analyzer itself must stay suppressed).
	if fs := Run(pkg, "branchsim", []*Analyzer{Determinism}); len(fs) != 0 {
		t.Fatalf("allow directive failed to suppress determinism: %v", fs)
	}
}
