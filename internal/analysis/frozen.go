package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Frozen proves the publish-then-never-write discipline the whole memo
// stack rests on. A type annotated //bplint:frozen — trace.Recording and
// its chunks, pipeline.MemSidecar, the memoized pipeline.Result — is
// shared by pointer across every experiment goroutine the moment its
// constructor returns it; the replay fast paths read it with no
// synchronization at all, which is sound only if nothing ever writes it
// again. One post-publication store is a data race that corrupts a
// replayed stream (or one memoized IPC cell) without failing loudly.
//
// The rule: state of a frozen type may be written only during
// construction. Concretely, a write (or a call to a same-package function
// that transitively writes) is sanctioned when it is reachable from a
// local variable that originates in a constructor expression (&T{}, T{},
// new(T), var x T) and happens before that variable first escapes the
// function — into a return value, another object, an unsanctioned call, a
// closure or a goroutine. Builder helpers that mutate frozen state through
// a pointer receiver or parameter are allowed but must stay unexported,
// and each call to one is checked at the call site like a direct write.
// Everything else — mutating a frozen value reached through another
// object, a global, or after an escape, a write inside a sync.Once Do body
// included — is a finding: no late write is sanctioned.
//
// Value-typed frozen locals (a pipeline.Result under construction) are
// freely writable until their address escapes: copies do not alias, so
// only &x can publish them.
var Frozen = &Analyzer{
	Name: "frozen",
	Doc:  "types marked //bplint:frozen must not be written after they escape their constructor",
	Run:  runFrozen,
}

var frozenRe = regexp.MustCompile(`^//\s*bplint:frozen\b`)

// crossMutators is the mutation vocabulary of the packages frozen types
// build on (internal/counter, internal/history, sync/atomic, ...). A call
// to a method with one of these names on a frozen-rooted value is treated
// as a write; the callee's body is in another package and out of reach,
// so the name is the contract.
var crossMutators = map[string]bool{
	"Update": true, "Push": true, "Add": true, "Set": true,
	"Insert": true, "Reset": true, "Train": true, "Record": true,
	"OnCycle": true, "Store": true, "Swap": true, "Clear": true,
	"Write": true, "Delete": true,
}

// frozenOp is one potential violation inside a function: a direct write to
// frozen state (callee nil) or a call that mutates frozen state iff the
// callee turns out to be a mutator.
type frozenOp struct {
	pos    token.Pos
	root   types.Object // root identifier's object (local/param/global), nil if none
	owner  *types.Named // the frozen type being written
	callee types.Object // same-package callee for deferred classification
}

func runFrozen(pass *Pass) {
	frozen := collectFrozenTypes(pass)
	if len(frozen) == 0 {
		return
	}
	decls := funcDecls(pass)
	flows := funcFlows(pass)

	ops := map[types.Object][]frozenOp{}
	for obj, fd := range decls {
		ops[obj] = collectFrozenOps(pass, fd, frozen, decls)
	}

	// Fixed point: a function is a mutator when it writes frozen state
	// rooted at its own (pointer) receiver or parameters, directly or by
	// calling another mutator with such a root flowing in.
	mutator := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, fops := range ops {
			if mutator[obj] {
				continue
			}
			ff := flows[obj]
			if ff == nil {
				continue
			}
			for _, op := range fops {
				if v, ok := op.root.(*types.Var); ok && ff.params[v] && pointerTyped(v) {
					if op.callee == nil || mutator[op.callee] {
						mutator[obj] = true
						changed = true
						break
					}
				}
			}
		}
	}

	// A mutator reachable from outside the package lets other packages
	// write frozen state the constructor already published.
	for obj := range mutator {
		if obj.Exported() {
			pass.Reportf(obj.Pos(),
				"exported %s mutates frozen state through its receiver or parameters; frozen builders must stay unexported",
				obj.Name())
		}
	}

	for obj, fops := range ops {
		ff := flows[obj]
		if ff == nil {
			continue
		}
		for _, op := range fops {
			if op.callee != nil && !mutator[op.callee] {
				continue // the callee never mutates frozen state
			}
			what := "frozen state"
			if op.owner != nil {
				what = "frozen " + op.owner.Obj().Name()
			}
			v, isVar := op.root.(*types.Var)
			if !isVar {
				pass.Reportf(op.pos, "%s is written outside any construction context", what)
				continue
			}
			switch {
			case ff.params[v] && pointerTyped(v):
				// Receiver/parameter-rooted: charged to this function's
				// callers via the mutator fixed point.
			case ff.params[v]:
				// A value receiver or parameter is a copy; writing it
				// cannot reach the published value.
			default:
				lf := ff.locals[v]
				if lf == nil {
					pass.Reportf(op.pos, "%s is written through %s, which this function does not construct", what, v.Name())
					continue
				}
				if pointerTyped(v) && lf.ctor == token.NoPos {
					pass.Reportf(op.pos,
						"%s is written through %s, which holds an already-published value, not a fresh construction",
						what, v.Name())
					continue
				}
				esc := lf.firstEscape(frozenSanction(pass, v))
				if esc != token.NoPos && esc <= op.pos {
					pass.Reportf(op.pos,
						"%s is written after %s escapes its constructor (escape at line %d)",
						what, v.Name(), pass.Fset.Position(esc).Line)
				}
			}
		}
	}
}

// frozenSanction returns the escape filter for a constructor-local: calls
// to builtins and to same-package functions (builder helpers and pure
// readers alike — a leak through one is still caught at the leaked write
// site) do not end the construction phase. A return escape is excused too:
// escape ordering is lexical, and a return statement that precedes a write
// in source (an early return inside the build loop) still terminates
// execution, so no same-function write can follow it at runtime. For
// value-typed locals only taking the address or a closure capture
// publishes the value — copies do not alias — so value-copy escapes
// (store, call) are excused as well.
func frozenSanction(pass *Pass, v *types.Var) func(varUse) bool {
	valueTyped := !pointerTyped(v)
	return func(u varUse) bool {
		if u.esc == escReturn {
			return true
		}
		if valueTyped && u.esc != escAddr && u.esc != escGo {
			return true
		}
		if u.esc != escCall {
			return false
		}
		if _, builtin := u.callee.(*types.Builtin); builtin {
			return true
		}
		if fn, ok := u.callee.(*types.Func); ok && fn.Pkg() == pass.Pkg {
			return true
		}
		return false
	}
}

// pointerTyped reports whether v's static type is pointer-shaped for
// aliasing purposes (a pointer; maps/slices/chans of frozen types do not
// arise here).
func pointerTyped(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Pointer)
	return ok
}

// collectFrozenTypes parses //bplint:frozen off type declarations.
func collectFrozenTypes(pass *Pass) map[*types.Named]bool {
	frozen := map[*types.Named]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !hasFrozenDirective(gd, ts) {
					continue
				}
				tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok {
					frozen[named] = true
				}
			}
		}
	}
	return frozen
}

func hasFrozenDirective(gd *ast.GenDecl, ts *ast.TypeSpec) bool {
	for _, group := range []*ast.CommentGroup{ts.Doc, gd.Doc} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			if frozenRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// collectFrozenOps scans one function for writes to frozen state and for
// calls that may mutate it.
func collectFrozenOps(pass *Pass, fd *ast.FuncDecl, frozen map[*types.Named]bool, decls map[types.Object]*ast.FuncDecl) []frozenOp {
	if fd.Body == nil {
		return nil
	}
	var out []frozenOp

	rootOf := func(e ast.Expr) types.Object {
		id := rootIdent(ast.Unparen(e))
		if id == nil {
			return nil
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		return obj
	}

	// frozenOwner returns the frozen type whose state the lvalue chain
	// touches: a selector step whose field belongs to a frozen struct, or
	// a chain rooted at a value of frozen type.
	frozenOwner := func(e ast.Expr) *types.Named {
		for {
			e = ast.Unparen(e)
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if sel := pass.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					if named := namedOf(sel.Recv()); named != nil && frozen[named] {
						return named
					}
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if tv, ok := pass.Info.Types[x]; ok {
					if named := namedOf(tv.Type); named != nil && frozen[named] {
						return named
					}
				}
				return nil
			default:
				return nil
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
					continue // rebinding a variable is not a state write
				}
				if owner := frozenOwner(lhs); owner != nil {
					out = append(out, frozenOp{pos: lhs.Pos(), root: rootOf(lhs), owner: owner})
				}
			}
		case *ast.IncDecStmt:
			if _, bare := ast.Unparen(st.X).(*ast.Ident); !bare {
				if owner := frozenOwner(st.X); owner != nil {
					out = append(out, frozenOp{pos: st.Pos(), root: rootOf(st.X), owner: owner})
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr)
			if !ok {
				// Plain call: frozen-rooted arguments flowing into a
				// same-package function defer to the fixed point.
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok {
					if fn, ok := pass.Info.Uses[id].(*types.Func); ok && fn.Pkg() == pass.Pkg && decls[fn] != nil {
						for _, a := range st.Args {
							if owner := frozenOwner(a); owner != nil {
								out = append(out, frozenOp{pos: st.Pos(), root: rootOf(a), owner: owner, callee: fn})
								break
							}
						}
					}
				}
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			owner := frozenOwner(sel.X)
			if owner == nil {
				return true
			}
			if fn.Pkg() == pass.Pkg && decls[fn] != nil {
				out = append(out, frozenOp{pos: st.Pos(), root: rootOf(sel.X), owner: owner, callee: fn})
			} else if crossMutators[fn.Name()] {
				out = append(out, frozenOp{pos: st.Pos(), root: rootOf(sel.X), owner: owner})
			}
		}
		return true
	})
	return out
}
