package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces annotated lock discipline: a struct field whose
// declaration carries a "// guarded by <mu>" comment may only be read or
// written in code where that mutex is provably held. The memo maps the
// fast paths rest on — the trace store's recordings and sidecars, the
// cell cache's entries — are shared across every experiment goroutine; an
// unguarded touch is a data race that corrupts a memoized Result (one
// wrong IPC cell) without ever failing loudly.
//
// Annotation forms, on the field's line or in its doc comment:
//
//	entries map[Key]*entry // guarded by mu
//	rec *trace.Recording   // guarded by Store.mu
//
// The first names a sibling mutex field of the same struct: every access
// x.entries needs a dominating x.mu.Lock() (same base expression x). The
// second names a mutex field of another struct in the package: every
// access needs a dominating Lock on some value of that type — the shape
// of a published-under-the-owner's-lock side record.
//
// "Provably held" is a per-function dominance approximation: the Lock
// call must precede the access with every enclosing statement container
// of the Lock also enclosing the access (a Lock inside one if-branch does
// not cover code after the branch), and no non-deferred Unlock of the
// same mutex may sit between them. Function literals are separate scopes.
// Helpers that require the caller to hold the lock carry a
// //bplint:allow lockguard directive saying so.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  `fields annotated "guarded by mu" may only be touched with that mutex provably held`,
	Run:  runLockGuard,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

// guardSpec is one parsed annotation.
type guardSpec struct {
	mu    string       // mutex field name
	owner *types.Named // nil for sibling form; otherwise the struct type owning mu
}

// mutexOp is one Lock/Unlock call site.
type mutexOp struct {
	unlock   bool
	deferred bool
	mu       string     // mutex field name
	baseStr  string     // ExprString of the value the mutex belongs to
	baseType types.Type // its static type
	pos      token.Pos
	fn       ast.Node   // enclosing function scope
	chain    []ast.Node // statement containers inside fn
}

// guardedAccess is one read or write of a guarded field.
type guardedAccess struct {
	spec    guardSpec
	field   *types.Var
	baseStr string
	pos     token.Pos
	fn      ast.Node
	chain   []ast.Node
}

func runLockGuard(pass *Pass) {
	specs := collectGuardSpecs(pass)
	if len(specs) == 0 {
		return
	}

	var locks []mutexOp
	var accesses []guardedAccess
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			if op, ok := mutexCall(pass, e, stack); ok {
				locks = append(locks, op)
			}
		case *ast.SelectorExpr:
			sel := pass.Info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return
			}
			// A generic struct's selections name the instantiated
			// field; specs is keyed by the declared one.
			v = v.Origin()
			spec, ok := specs[v]
			if !ok {
				return
			}
			fn := enclosingFunc(stack)
			accesses = append(accesses, guardedAccess{
				spec:    spec,
				field:   v,
				baseStr: types.ExprString(ast.Unparen(e.X)),
				pos:     e.Sel.Pos(),
				fn:      fn,
				chain:   containerChain(stack, fn),
			})
		}
	})

	for _, a := range accesses {
		if !guardHeld(a, locks) {
			where := a.spec.mu
			if a.spec.owner != nil {
				where = a.spec.owner.Obj().Name() + "." + a.spec.mu
			}
			pass.Reportf(a.pos,
				"%s is guarded by %s but accessed without the mutex provably held on every path to this point",
				a.field.Name(), where)
		}
	}
}

// collectGuardSpecs parses "guarded by" annotations off struct field
// declarations and resolves them, reporting malformed ones in place.
func collectGuardSpecs(pass *Pass) map[*types.Var]guardSpec {
	specs := map[*types.Var]guardSpec{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				ann := fieldAnnotation(f)
				if ann == "" {
					continue
				}
				for _, name := range f.Names {
					v, ok := pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					spec, err := resolveGuardSpec(pass, ts, ann)
					if err != "" {
						pass.Reportf(name.Pos(), "bad guarded-by annotation: %s", err)
						continue
					}
					specs[v] = spec
				}
			}
			return true
		})
	}
	return specs
}

// fieldAnnotation extracts the guarded-by target from a field's doc or
// line comment.
func fieldAnnotation(f *ast.Field) string {
	for _, group := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			if m := guardedByRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// resolveGuardSpec validates the annotation against the package's types:
// a bare name must be a sibling field of the annotated struct, a
// Type.name form must be a field of that package-scope struct type.
func resolveGuardSpec(pass *Pass, ts *ast.TypeSpec, ann string) (guardSpec, string) {
	if owner, mu, ok := strings.Cut(ann, "."); ok {
		tn, isType := pass.Pkg.Scope().Lookup(owner).(*types.TypeName)
		if !isType {
			return guardSpec{}, "no package-scope type " + owner
		}
		named, isNamed := tn.Type().(*types.Named)
		if !isNamed || !structHasField(named.Underlying(), mu) {
			return guardSpec{}, owner + " has no field " + mu
		}
		return guardSpec{mu: mu, owner: named}, ""
	}
	tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
	if tn == nil || !structHasField(tn.Type().Underlying(), ann) {
		return guardSpec{}, ts.Name.Name + " has no sibling mutex field " + ann
	}
	return guardSpec{mu: ann}, ""
}

func structHasField(t types.Type, name string) bool {
	st, ok := t.(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// mutexCall recognizes X.<mu>.Lock/Unlock/RLock/RUnlock() and records the
// base expression the mutex hangs off.
func mutexCall(pass *Pass, call *ast.CallExpr, stack []ast.Node) (mutexOp, bool) {
	outer, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return mutexOp{}, false
	}
	var unlock bool
	switch outer.Sel.Name {
	case "Lock", "RLock":
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return mutexOp{}, false
	}
	inner, ok := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	base := ast.Unparen(inner.X)
	tv, ok := pass.Info.Types[base]
	if !ok || tv.Type == nil {
		return mutexOp{}, false
	}
	deferred := false
	if len(stack) > 0 {
		if _, isDefer := stack[len(stack)-1].(*ast.DeferStmt); isDefer {
			deferred = true
		}
	}
	fn := enclosingFunc(stack)
	return mutexOp{
		unlock:   unlock,
		deferred: deferred,
		mu:       inner.Sel.Name,
		baseStr:  types.ExprString(base),
		baseType: tv.Type,
		pos:      call.Pos(),
		fn:       fn,
		chain:    containerChain(stack, fn),
	}, true
}

// opMatches reports whether a Lock/Unlock op is on the mutex the access's
// annotation names: same base expression for the sibling form, any value
// of the owning type for the Type.mu form.
func opMatches(op mutexOp, a guardedAccess) bool {
	if op.mu != a.spec.mu {
		return false
	}
	if a.spec.owner == nil {
		return op.baseStr == a.baseStr
	}
	t := op.baseType
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == a.spec.owner.Obj()
}

// guardHeld reports whether some matching Lock dominates the access with
// no possibly-intervening non-deferred Unlock.
func guardHeld(a guardedAccess, locks []mutexOp) bool {
	for _, l := range locks {
		if l.unlock || l.fn != a.fn || l.pos >= a.pos || !opMatches(l, a) {
			continue
		}
		if !chainCovers(a.chain, l.chain) {
			continue // the Lock sits in a branch the access may not have taken
		}
		killed := false
		for _, u := range locks {
			if u.unlock && !u.deferred && u.fn == a.fn &&
				u.pos > l.pos && u.pos < a.pos && opMatches(u, a) {
				killed = true
				break
			}
		}
		if !killed {
			return true
		}
	}
	return false
}
