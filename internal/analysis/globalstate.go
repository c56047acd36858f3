package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GlobalState inventories package-level mutable state in the hot shared
// packages — the ones every experiment goroutine (and, next, every
// reproduce shard) runs through: internal/trace, internal/funcsim,
// internal/pipeline and internal/experiments. A
// package-level variable there is process-shared by construction; the
// sharded drivers are sound only if each such variable is one of
//
//   - a synchronization primitive itself (mutex, Once, WaitGroup, chan);
//   - self-guarded: a struct (or pointer to one) carrying its own mutex,
//     whose fields lockguard then polices (the process-wide cell
//     caches);
//   - write-once: initialized in its declaration or func init() and never
//     assigned afterwards (lookup tables, registries);
//   - or explicitly audited with //bplint:allow globalstate <reason>.
//
// Anything else — a bare counter, a mutable map, a reassignable pointer —
// is reported. This is the static inventory behind the "measure the real
// constraint before scaling" step: before the parallel-reproduce refactor
// lands, every piece of cross-goroutine state is either proven disciplined
// or carries a signed waiver.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc:  "package-level vars in hot packages must be guarded, write-once, or carry an allow",
	Run:  runGlobalState,
}

// globalStatePkgs are the hot shared packages the analyzer gates on — the
// same set the determinism analyzer's coverage test pins.
var globalStatePkgs = map[string]bool{
	"internal/trace":       true,
	"internal/funcsim":     true,
	"internal/pipeline":    true,
	"internal/experiments": true,
}

func runGlobalState(pass *Pass) {
	rel := pass.RelPath()
	if !globalStatePkgs[rel] {
		ok := false
		for p := range globalStatePkgs {
			if strings.HasPrefix(rel, p+"/") {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
	}

	writes := collectGlobalWrites(pass)
	writtenLate := map[*types.Var]token.Pos{}
	for _, w := range writes {
		if w.inInit {
			continue
		}
		if _, seen := writtenLate[w.obj]; !seen {
			writtenLate[w.obj] = w.pos
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					v, ok := pass.Info.Defs[name].(*types.Var)
					if !ok || name.Name == "_" {
						continue
					}
					checkGlobal(pass, name, v, writtenLate)
				}
			}
		}
	}
}

func checkGlobal(pass *Pass, name *ast.Ident, v *types.Var, writtenLate map[*types.Var]token.Pos) {
	if syncPrimitive(v.Type()) || selfGuarded(v.Type()) {
		return
	}
	if pos, ok := writtenLate[v]; ok {
		pass.Reportf(name.Pos(),
			"package-level var %s is written after init (line %d) but is neither a sync primitive nor self-guarded — guard it, make it write-once, or document //bplint:allow globalstate",
			name.Name, pass.Fset.Position(pos).Line)
		return
	}
	// Never assigned outside init: write-once. Mutable aggregates (maps,
	// slices, pointers to plain structs) could still be mutated through
	// element or field stores; those arrive as writes rooted at the var
	// and are caught above, so reaching here means the package treats the
	// value as read-only.
}

// syncPrimitive reports whether t is itself a synchronization mechanism.
func syncPrimitive(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		return syncPrimitive(t.Underlying().(*types.Pointer).Elem())
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// selfGuarded reports whether t (or its pointee) is a struct that carries
// its own mutex field — the shape lockguard's annotations then police.
func selfGuarded(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if named := namedOf(st.Field(i).Type()); named != nil {
			if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync" &&
				strings.HasSuffix(named.Obj().Name(), "Mutex") {
				return true
			}
		}
	}
	return false
}
