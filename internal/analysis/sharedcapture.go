package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedCapture holds goroutines to share-nothing: a closure launched
// with `go` shares every variable it captures with its parent, and the
// worker pools (the plan's RunCells, cmd/bplint's package workers) launch
// many of them. A captured variable that either side writes is a data
// race unless its type is built to be shared: channels, function values,
// and sync and sync/atomic values are the whole sharing vocabulary.
//
// The rule, per go-launched function literal: a captured variable that is
// written (inside the goroutine, or by the parent at any point after the
// `go` statement) must be a channel, a function value or a sync/sync
// atomic value, or a pointer to one; otherwise every access to it on
// either side is a finding. A lock held around each access does not
// excuse it: a worker keeps its own state and hands it back on a channel.
// Loop-range and worker-pool reads of never-written captures are fine.
var SharedCapture = &Analyzer{
	Name: "sharedcapture",
	Doc:  "a variable a go-launched closure captures and either side writes must be a channel, function value or sync/atomic value",
	Run:  runSharedCapture,
}

// capAccess is one appearance of a captured variable, either side of the
// goroutine boundary.
type capAccess struct {
	write bool
	pos   token.Pos
}

func runSharedCapture(pass *Pass) {
	// Find every `go func(...){...}(...)` launch and its lexical parent.
	type launch struct {
		stmt *ast.GoStmt
		lit  *ast.FuncLit
	}
	var launches []launch
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
			launches = append(launches, launch{stmt: gs, lit: lit})
		}
	})
	if len(launches) == 0 {
		return
	}

	for _, l := range launches {
		checkLaunch(pass, l.stmt, l.lit)
	}
}

func checkLaunch(pass *Pass, gs *ast.GoStmt, lit *ast.FuncLit) {
	// Captured variables: identifiers used inside the literal that resolve
	// to variables declared in an enclosing function (not the literal's
	// own parameters or locals, not fields, not package-level state,
	// which the hot packages keep write-once: DESIGN.md §6.3).
	captured := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured[v] = true
		}
		return true
	})
	if len(captured) == 0 {
		return
	}

	// Every access to each captured variable, split by side: inside the
	// launched literal, or in the parent after the launch.
	accesses := map[*types.Var][]capAccess{}
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !captured[v] {
			return
		}
		inLit := id.Pos() > lit.Pos() && id.Pos() < lit.End()
		if !inLit && id.Pos() <= gs.End() {
			return // parent accesses before (or at) the launch are pre-publication
		}
		accesses[v] = append(accesses[v], capAccess{write: isWriteContext(stack, id), pos: id.Pos()})
	})

	for v, accs := range accesses {
		if sharableType(v.Type()) {
			continue
		}
		written := false
		for _, a := range accs {
			if a.write {
				written = true
				break
			}
		}
		if !written {
			continue // read-only on both sides: effectively immutable after launch
		}
		for _, a := range accs {
			pass.Reportf(a.pos,
				"%s is captured by a go statement (line %d) and written, but is not a channel, function value or sync/atomic value",
				v.Name(), pass.Fset.Position(gs.Pos()).Line)
		}
	}
}

// isWriteContext reports whether the ident at the top of the walk is (the
// root of) an assignment target or ++/-- operand.
func isWriteContext(stack []ast.Node, id *ast.Ident) bool {
	cur := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.IndexExpr, *ast.ParenExpr, *ast.StarExpr:
			cur = p
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		default:
			return false
		}
	}
	return false
}

// sharableType reports whether t is safe to share across goroutines by
// design: channels, function values, and sync and sync/atomic values, or
// a pointer to one.
func sharableType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Chan, *types.Signature:
		return true
	case *types.Pointer:
		return sharableType(u.Elem())
	}
	if named := namedOf(t); named != nil {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
		}
	}
	return false
}
