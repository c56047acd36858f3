package analysis

import "go/ast"

// flow.go holds the small flow-analysis vocabulary of the frozen analyzer
// and its dataflow core (dataflow.go): root identifiers of access chains
// and enclosing-function lookup.

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
