package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OncePublish certifies the memo stores' publication protocol. The trace
// store's entries (entry.rec, sidecarEntry.side) and the cell cache's
// entries and group runs (cellEntry.res, groupRun.res) follow one pattern: a struct pairing a sync.Once
// with the published payload, where the first goroutine computes inside
// once.Do and everyone else blocks on the Do and then reads. The pattern
// is sound; the classic way to break it is the unsynchronized
// double-checked load — `if e.res == nil { e.once.Do(...) }` — which reads
// the payload before any happens-before edge exists and can observe a
// torn or stale value.
//
// The rule, for every struct type that pairs a sync.Once field with
// payload fields: a payload field may be written only inside a function
// literal passed to that struct's own Once Do (on the same base value),
// and may be read only where a Do call on the same base dominates, where
// a mutex Lock dominates (publication under the owner's lock, the trace
// store's read-back path), or inside the Do body itself. Anything else is
// an unsynchronized load or store of a once-published value.
var OncePublish = &Analyzer{
	Name: "oncepublish",
	Doc:  "fields sharing a struct with a sync.Once must be published inside Do and read behind Do or a lock",
	Run:  runOncePublish,
}

// onceStructInfo describes one Once-paired struct type.
type onceStructInfo struct {
	named *types.Named
	once  string // the sync.Once field's name
}

func runOncePublish(pass *Pass) {
	payload := map[*types.Var]onceStructInfo{} // payload field → its struct
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		onceField := ""
		for i := 0; i < st.NumFields(); i++ {
			if isSyncOnce(st.Field(i).Type()) {
				onceField = st.Field(i).Name()
				break
			}
		}
		if onceField == "" {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == onceField || isSyncOnce(f.Type()) {
				continue
			}
			payload[f] = onceStructInfo{named: named, once: onceField}
		}
	}
	if len(payload) == 0 {
		return
	}

	locks := collectLockOps(pass)
	doCalls := collectDoCalls(pass)

	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return
		}
		// A generic struct's selections name the instantiated field;
		// payload is keyed by the declared one.
		v = v.Origin()
		info, ok := payload[v]
		if !ok {
			return
		}
		base := types.ExprString(ast.Unparen(sel.X))
		fn := enclosingFunc(stack)
		chain := containerChain(stack, fn)

		if onceBase, inDo := insideOnceDo(pass, stack); inDo && onceBase == base+"."+info.once {
			return // the Do body is the publication critical section
		}
		if writtenSelector(stack, sel) {
			pass.Reportf(sel.Sel.Pos(),
				"%s.%s is once-published but written outside %s.%s.Do — only the Do body may publish it",
				info.named.Obj().Name(), v.Name(), base, info.once)
			return
		}
		// A read: needs a dominating Do on the same base, or a dominating
		// lock (the store-lock read-back and inventory paths).
		for _, d := range doCalls {
			if d.fn == fn && d.base == base+"."+info.once && d.pos < sel.Pos() && chainCovers(chain, d.chain) {
				return
			}
		}
		if lockDominates(locks, "", fn, sel.Pos(), chain) {
			return
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s.%s is read without a dominating %s.%s.Do or lock — an unsynchronized load of a once-published value",
			info.named.Obj().Name(), v.Name(), base, info.once)
	})
}

// writtenSelector reports whether the selector itself (not just its root
// ident) is an assignment target — e.g. `e.res = v` arrives here with the
// SelectorExpr as the LHS.
func writtenSelector(stack []ast.Node, sel *ast.SelectorExpr) bool {
	cur := ast.Node(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.IndexExpr:
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

// doCall is one <base>.Do(...) call on a sync.Once value.
type doCall struct {
	base  string // "e.once"
	pos   token.Pos
	fn    ast.Node
	chain []ast.Node
}

func collectDoCalls(pass *Pass) []doCall {
	var calls []doCall
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Do" {
			return
		}
		if !isSyncOnce(pass.Info.Types[ast.Unparen(sel.X)].Type) {
			return
		}
		fn := enclosingFunc(stack)
		calls = append(calls, doCall{
			base:  types.ExprString(ast.Unparen(sel.X)),
			pos:   call.Pos(),
			fn:    fn,
			chain: containerChain(stack, fn),
		})
	})
	return calls
}
