package analysis

import "go/ast"

// flow.go holds the small flow-analysis vocabulary of the frozen analyzer
// and its dataflow core (dataflow.go): root identifiers of access chains
// and enclosing-function lookup. The statement-container chains below are
// the per-scope dominance approximation the lock analyzers compared
// positions with; no analyzer calls them since those went, and they go
// with their tests (ROADMAP).

// rootIdent returns the leftmost identifier of a selector/index/deref
// chain, or nil when the chain is rooted in something else (a call result,
// a literal). It is how the flow analyzers decide whether an lvalue or a
// method receiver reaches state owned by a function's receiver or
// parameters.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// enclosingFunc returns the innermost function literal or declaration on
// the stack, or nil at package scope. Function literals are their own
// analysis scope: a closure's use of a variable is a capture, not a use
// by the function that declares it.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// containerChain returns the statement containers (blocks and switch/select
// clause bodies) on the stack strictly inside fn, outermost first. Two
// positions share a prefix of container chains exactly when they share
// control-flow context, which is what a dominance approximation compares.
func containerChain(stack []ast.Node, fn ast.Node) []ast.Node {
	var chain []ast.Node
	seenFn := fn == nil
	for _, n := range stack {
		if !seenFn {
			if n == fn {
				seenFn = true
			}
			continue
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			chain = append(chain, n)
		}
	}
	return chain
}

// chainCovers reports whether every container in inner's chain also
// appears in outer's chain — i.e. code at inner executes only when control
// has entered every scope that code at outer is in. (Chains come from one
// AST walk, so identity comparison suffices.)
func chainCovers(outer, inner []ast.Node) bool {
	covered := map[ast.Node]bool{}
	for _, n := range outer {
		covered[n] = true
	}
	for _, n := range inner {
		if !covered[n] {
			return false
		}
	}
	return true
}
