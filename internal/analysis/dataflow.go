package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dataflow.go is the dataflow core under the frozen analyzer: a
// package-level def/use summary. For every function it records, per local
// variable, where the value originates (a constructor expression or not),
// every write through it, and the earliest point it escapes the function
// — into a return value, another object, an unsanctioned call, a goroutine
// or a closure.
//
// Like the rest of the suite this is a conservative approximation, tuned
// so that what it cannot prove safe it reports (the allow directive is the
// escape hatch): aliasing a pointer to another variable counts as an
// escape, as does passing it to any call the analyzer does not explicitly
// sanction.

// useKind classifies one appearance of a variable (as the root identifier
// of an access chain).
type useKind int

const (
	useRead   useKind = iota
	useWrite          // root of an assignment LHS or ++/--
	useEscape         // the value leaves the function (see escapeKind)
)

// escapeKind refines useEscape.
type escapeKind int

const (
	escNone   escapeKind = iota
	escReturn            // mentioned in a return statement
	escStore             // stored into a field, element, global or other variable
	escCall              // passed to (or receiving) a call; callee may sanction it
	escGo                // reaches another goroutine: go/defer statement or closure capture
	escAddr              // address taken with & (only meaningful for value-typed locals)
)

// varUse is one classified appearance of a tracked variable.
type varUse struct {
	kind   useKind
	esc    escapeKind
	callee types.Object // for escCall: the called function/method, if resolvable
	deref  bool         // the use goes through a selector/index (x.f, x[i]), not x itself
	pos    token.Pos
}

// localFlow summarizes one function-local variable.
type localFlow struct {
	obj      *types.Var
	ctor     token.Pos  // position of a constructor origin, or NoPos
	ctorType types.Type // the constructed type (composite literal type, new's elem)
	uses     []varUse   // in source order
}

// funcFlow summarizes one function declaration's body.
type funcFlow struct {
	decl   *ast.FuncDecl
	params map[*types.Var]bool // receiver + parameters (+ named results)
	locals map[*types.Var]*localFlow
}

// firstEscape returns the earliest escape of v not excused by sanction
// (sanction may be nil). Escapes inside other functions (closures) count:
// once a closure can see the variable, the constructor no longer owns it.
func (lf *localFlow) firstEscape(sanction func(varUse) bool) token.Pos {
	for _, u := range lf.uses {
		if u.kind != useEscape {
			continue
		}
		if sanction != nil && sanction(u) {
			continue
		}
		return u.pos
	}
	return token.NoPos
}

// funcFlows builds the per-function dataflow summaries for every function
// declaration in the package.
func funcFlows(pass *Pass) map[types.Object]*funcFlow {
	flows := map[types.Object]*funcFlow{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			flows[obj] = buildFuncFlow(pass, fd)
		}
	}
	return flows
}

func buildFuncFlow(pass *Pass, fd *ast.FuncDecl) *funcFlow {
	ff := &funcFlow{decl: fd, params: map[*types.Var]bool{}, locals: map[*types.Var]*localFlow{}}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok {
					ff.params[v] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)

	// First pass: find the locals and their constructor origins.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.Info.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				lf := &localFlow{obj: v, ctor: token.NoPos}
				if len(st.Rhs) == len(st.Lhs) {
					if t, ok := ctorExpr(pass, st.Rhs[i]); ok {
						lf.ctor, lf.ctorType = st.Rhs[i].Pos(), t
					}
				}
				ff.locals[v] = lf
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				v, ok := pass.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				lf := &localFlow{obj: v, ctor: token.NoPos}
				if len(st.Values) == 0 {
					// var x T: the zero value is a constructor origin.
					lf.ctor, lf.ctorType = name.Pos(), v.Type()
				} else if i < len(st.Values) {
					if t, ok := ctorExpr(pass, st.Values[i]); ok {
						lf.ctor, lf.ctorType = st.Values[i].Pos(), t
					}
				}
				ff.locals[v] = lf
			}
		}
		return true
	})

	// Second pass: classify every use of a tracked local.
	var stack []ast.Node
	stack = append(stack, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok {
				if lf := ff.locals[v]; lf != nil {
					lf.uses = append(lf.uses, classifyUse(pass, id, stack, fd))
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return ff
}

// ctorExpr reports whether e constructs a fresh value — a composite
// literal, its address, or new(T) — and returns the constructed type.
func ctorExpr(pass *Pass, e ast.Expr) (types.Type, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if tv, ok := pass.Info.Types[x]; ok && tv.Type != nil {
			return tv.Type, true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				if tv, ok := pass.Info.Types[cl]; ok && tv.Type != nil {
					return tv.Type, true
				}
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 1 {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
				if tv, ok := pass.Info.Types[x.Args[0]]; ok && tv.Type != nil {
					return tv.Type, true
				}
			}
		}
	}
	return nil, false
}

// classifyUse decides what one appearance of a tracked variable does:
// read, write, or one of the escape shapes. id sits at the top of stack's
// ancestry; fd is the declaring function.
func classifyUse(pass *Pass, id *ast.Ident, stack []ast.Node, fd *ast.FuncDecl) varUse {
	u := varUse{kind: useRead, pos: id.Pos()}

	// Capture: the use sits inside a function literal, which may outlive
	// the frame and run on another goroutine.
	if enclosingFunc(stack) != ast.Node(fd) {
		u.kind, u.esc = useEscape, escGo
		return u
	}

	// Walk outward through the access chain the ident roots. deref tracks
	// whether we moved through a selector/index — i.e. the use touches
	// state the variable points to rather than the variable itself.
	cur := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			if p.X == cur {
				u.deref = true
				cur = p
				continue
			}
			// id is the Sel half: resolved to a field/method object, the
			// caller's Uses lookup would not have matched the variable.
			return u
		case *ast.IndexExpr:
			if p.X == cur {
				u.deref = true
			}
			cur = p
			continue
		case *ast.ParenExpr, *ast.StarExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
			cur = p
			continue
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				u.kind, u.esc = useEscape, escAddr
				cur = p
				continue
			}
			cur = p
			continue
		case *ast.CallExpr:
			if p.Fun == cur {
				// x.M(...): the variable is the receiver of the call.
				u.kind, u.esc = useEscape, escCall
				u.callee = calleeOf(pass, p)
				return u
			}
			// The variable (or its address) is an argument.
			u.kind, u.esc = useEscape, escCall
			u.callee = calleeOf(pass, p)
			return u
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					if u.esc == escAddr {
						return u // &x on the LHS cannot happen; keep the escape
					}
					u.kind = useWrite
					return u
				}
			}
			// On the RHS: a bare alias or a store into something else —
			// either way the constructor loses sole ownership. Reads that
			// never leave the expression (x.f on a RHS) are not stores.
			if u.deref && u.esc == escNone {
				return u
			}
			u.kind, u.esc = useEscape, escStore
			return u
		case *ast.IncDecStmt:
			u.kind = useWrite
			return u
		case *ast.ReturnStmt:
			u.kind, u.esc = useEscape, escReturn
			return u
		case *ast.CompositeLit:
			// Placed inside another value.
			if !u.deref {
				u.kind, u.esc = useEscape, escStore
			}
			return u
		case *ast.SendStmt:
			if p.Value == cur || !u.deref {
				u.kind, u.esc = useEscape, escGo
			}
			return u
		case *ast.GoStmt, *ast.DeferStmt:
			u.kind, u.esc = useEscape, escGo
			return u
		case *ast.RangeStmt:
			if p.X == cur {
				return u // ranging over the value is a read
			}
			return u
		case ast.Stmt, *ast.FuncLit:
			return u
		default:
			cur = p
		}
	}
	return u
}

// calleeOf resolves the called function or method object of a call, or nil.
func calleeOf(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
