package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// SwitchEnum makes outcome- and meta-class dispatch total in the
// simulator's hot packages (trace, funcsim, pipeline). The fused sweeps
// dispatch on instruction kinds and sidecar class bits; a switch that
// silently falls through for an unhandled member is exactly how a new
// instruction kind or class code drifts past the timing model. Every
// switch over a recognized enum must either reference every member in
// its cases (an explicit default is then optional) or carry a default
// that panics — "impossible" must be spelled out, never implied.
//
// Enums are recognized two ways:
//
//   - a const block marked //bplint:enum <name> forms a named group; a
//     switch is over the group when any case expression references a
//     member (shifted/masked forms included), and must then reference
//     all of them — this covers the untyped class-bit codes of the
//     memory sidecar;
//   - a switch whose tag has a defined type with at least two constants
//     of that type in the defining package is over that type's constant
//     set (trace.Kind), wherever those constants are declared.
//
// Members named num*/Num* are counting sentinels, not values, and `_` is
// ignored. Tagless switches and type switches are out of scope.
var SwitchEnum = &Analyzer{
	Name: "switchenum",
	Doc:  "switches over outcome/meta-class enums in trace/funcsim/pipeline must be exhaustive or panic in default",
	Run:  runSwitchEnum,
}

var enumRe = regexp.MustCompile(`^//\s*bplint:enum\s+([A-Za-z_][A-Za-z0-9_-]*)\s*$`)

// switchEnumPackages gates the analyzer to the packages whose dispatch
// the simulators' outcome-class dispatch depends on.
var switchEnumPackages = map[string]bool{"trace": true, "funcsim": true, "pipeline": true}

func runSwitchEnum(pass *Pass) {
	last := pass.Path[strings.LastIndex(pass.Path, "/")+1:]
	if !switchEnumPackages[last] {
		return
	}
	groups := collectEnumGroups(pass)
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return
		}
		checkSwitchEnum(pass, sw, groups)
	})
}

// enumGroup is one //bplint:enum const block.
type enumGroup struct {
	name    string
	members []types.Object
}

func collectEnumGroups(pass *Pass) []*enumGroup {
	var out []*enumGroup
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Doc == nil {
				continue
			}
			var name string
			for _, c := range gd.Doc.List {
				if m := enumRe.FindStringSubmatch(c.Text); m != nil {
					name = m[1]
				}
			}
			if name == "" {
				continue
			}
			g := &enumGroup{name: name}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if sentinelName(id.Name) {
						continue
					}
					if obj := pass.Info.Defs[id]; obj != nil {
						g.members = append(g.members, obj)
					}
				}
			}
			if len(g.members) < 2 {
				pass.Reportf(gd.Pos(), "//bplint:enum %s needs at least two non-sentinel members to be a dispatchable set", name)
				continue
			}
			out = append(out, g)
		}
	}
	return out
}

func sentinelName(name string) bool {
	return name == "_" || strings.HasPrefix(name, "num") || strings.HasPrefix(name, "Num")
}

func checkSwitchEnum(pass *Pass, sw *ast.SwitchStmt, groups []*enumGroup) {
	// Collect the objects referenced by case expressions and the default
	// clause, if any.
	referenced := map[types.Object]bool{}
	var deflt *ast.CaseClause
	for _, cc := range sw.Body.List {
		cc := cc.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						referenced[obj] = true
					}
				}
				return true
			})
		}
	}

	name, members := switchEnumSet(pass, sw, groups, referenced)
	if members == nil {
		return
	}
	var missing []string
	for _, m := range members {
		if !referenced[m] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	if deflt == nil {
		pass.Reportf(sw.Pos(), "switch over %s does not handle %s and has no default — add the cases or a panicking default so new members cannot fall through silently",
			name, strings.Join(missing, ", "))
		return
	}
	if !clausePanics(deflt) {
		pass.Reportf(deflt.Pos(), "switch over %s does not handle %s; its default must panic so the unhandled members cannot be silently misclassified",
			name, strings.Join(missing, ", "))
	}
}

// switchEnumSet decides which enum, if any, the switch dispatches over.
// Directive groups take precedence (their members may be untyped bit
// codes); otherwise a defined tag type with >= 2 constants in its
// package is used.
func switchEnumSet(pass *Pass, sw *ast.SwitchStmt, groups []*enumGroup, referenced map[types.Object]bool) (string, []types.Object) {
	for _, g := range groups {
		for _, m := range g.members {
			if referenced[m] {
				return "//bplint:enum " + g.name, g.members
			}
		}
	}
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return "", nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return "", nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return "", nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return "", nil
	}
	scope := tn.Pkg().Scope()
	var members []types.Object
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		c, ok := obj.(*types.Const)
		if !ok || sentinelName(name) {
			continue
		}
		if types.Identical(c.Type(), named) {
			members = append(members, c)
		}
	}
	if len(members) < 2 {
		return "", nil
	}
	return tn.Name(), members
}

// clausePanics reports whether the clause body contains a panic call
// anywhere (a guard pattern like `if x { ... }; panic(...)` counts).
func clausePanics(cc *ast.CaseClause) bool {
	found := false
	for _, st := range cc.Body {
		ast.Inspect(st, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
