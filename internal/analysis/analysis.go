// Package analysis is a custom static-analysis engine, built only on the
// standard library's go/ast, go/parser and go/types, that machine-checks the
// invariants this reproduction depends on:
//
//   - determinism: simulation packages must not consult wall clocks,
//     math/rand or the environment — the repo owns its generators
//     (internal/rng) precisely so every run is bit-for-bit reproducible;
//   - panicmsg: panics carry "<pkg>: ..."-prefixed messages, the repo-wide
//     convention that makes a crash attributable without a stack dive;
//   - sizebytes: every Predictor implementation accounts all state-carrying
//     tables in SizeBytes, the x axis of every figure in the paper;
//   - pow2mask: len(x)-1 index masks are only derived from sizes proven to
//     be powers of two;
//   - floatcmp: no exact floating-point equality in the statistics and
//     experiment packages.
//
// A second, flow-aware generation certifies that workers share nothing
// but what Go builds for sharing, and that published values stay
// unwritten; frozen rests on a per-package dataflow core (dataflow.go)
// that tracks constructor origins and escapes:
//
//   - frozen: types marked //bplint:frozen (recordings, memory sidecars,
//     simulation results) are never written after escaping their
//     constructor; no late write is sanctioned, sync.Once included;
//   - sharedcapture: a variable a go-launched closure captures and either
//     side writes must be a channel, a function value or a sync/atomic
//     value;
//   - maporder: nondeterministic map iteration order must not flow into
//     canonical keys, codec output, or stdout.
//
// A third generation guards the simulators' outcome-class dispatch:
//
//   - switchenum: switches over declared outcome/meta-class const sets
//     in trace/funcsim/pipeline (//bplint:enum groups or typed enums)
//     must be exhaustive or panic in their default.
//
// Invariants a runtime test pins on the code that actually runs (hot
// loops allocation-free, Predict pure, every key field in the canonical
// key, one cursor protocol per cursor) are left to those tests; DESIGN.md
// §6.3 maps each to its guard.
//
// Findings can be suppressed for a single line with an allow directive on
// the same line or the line directly above:
//
//	//bplint:allow determinism progress output only, never in results
//
// The directive names one analyzer (or a comma-separated list) and should
// carry a reason. cmd/bplint is the command-line driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a type-checked package via
// the Pass and reports findings through it.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// Doc is a one-line description shown by bplint -list.
	Doc string
	// Run executes the analyzer on one package.
	Run func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		PanicMsg,
		SizeBytes,
		Pow2Mask,
		FloatCmp,
		Frozen,
		SharedCapture,
		MapOrder,
		SwitchEnum,
	}
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset   *token.FileSet
	Module string // module path of the enclosing module, e.g. "branchsim"
	Path   string // import path of the package under analysis
	Dir    string // directory the package was loaded from ("" when synthetic)
	Pkg    *types.Package
	Info   *types.Info
	Files  []*ast.File

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RelPath returns the package's path relative to the module root ("." for
// the root package itself).
func (p *Pass) RelPath() string {
	switch {
	case p.Path == p.Module:
		return "."
	case strings.HasPrefix(p.Path, p.Module+"/"):
		return strings.TrimPrefix(p.Path, p.Module+"/")
	}
	return p.Path
}

// InSimulation reports whether the package is part of the simulator proper
// (under internal/), where the determinism and convention analyzers apply.
func (p *Pass) InSimulation() bool {
	rel := p.RelPath()
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// Run applies the analyzers to pkg and returns the findings that are not
// suppressed by allow directives, sorted by position.
func Run(pkg *Package, module string, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Module:   module,
			Path:     pkg.Path,
			Dir:      pkg.Dir,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Files:    pkg.Files,
			analyzer: a,
			findings: &raw,
		}
		a.Run(pass)
	}
	allowed := collectAllows(pkg)
	out := raw[:0]
	for _, f := range raw {
		if !allowed.covers(f) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

var allowRe = regexp.MustCompile(`^//\s*bplint:allow\s+([A-Za-z0-9_,-]+)[ \t]*(.*)$`)

// allowSet records, per file and line, the analyzer names an allow directive
// suppresses.
type allowSet map[string]map[int]map[string]bool

// covers reports whether a directive on the finding's line, or on the line
// directly above it, names the finding's analyzer.
func (s allowSet) covers(f Finding) bool {
	lines := s[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if lines[line][f.Analyzer] {
			return true
		}
	}
	return false
}

func collectAllows(pkg *Package) allowSet {
	set := allowSet{}
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = map[string]bool{}
					lines[pos.Line] = names
				}
				for _, name := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return set
}

// inspectStack walks every node of every file, handing the visitor the stack
// of ancestors (outermost first, excluding n itself).
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
