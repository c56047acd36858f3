package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PredictPure proves the fast paths' central contract: Predict (and
// PredictBits) on internal/predictor types must not mutate predictor
// state. Both engines step predictors through StepBatch, whose per-branch
// adapter for stepper-less kinds calls Update right after Predict, so the
// contract is not about delayed updates.
// It is what keeps the protocols interchangeable: a StepBatch must equal
// the scalar Predict-then-Update sequence bit for bit, and the overriding
// organization asks both components before either trains. A Predict that
// trained state would make results depend on which protocol drove the
// predictor and silently break the bit-identical equivalence the suites
// enforce.
//
// The analysis is flow-aware within the package: a method is flagged for
// direct stores to state reachable from its receiver or parameters
// (field assignments, element stores, ++/--), for calls to known-mutating
// methods of other packages (Update, Push, Add, Set, ... — the repo's
// counter/history mutation vocabulary) on receiver-rooted values, and for
// calls to same-package helpers that transitively do either with
// receiver-rooted values flowing in. A write that provably never changes
// an outcome (a Predict→Update memo that Update always invalidates) may
// carry a //bplint:allow predictpure directive stating that invariant; the
// repository has none left.
var PredictPure = &Analyzer{
	Name: "predictpure",
	Doc:  "Predict/PredictBits on internal/predictor types must not mutate predictor state",
	Run:  runPredictPure,
}

// predictMethods are the prediction entry points that must stay pure.
// Update and the block protocol are the designated mutation points.
var predictMethods = map[string]bool{
	"Predict":     true,
	"PredictBits": true,
}

// crossMutators is the mutation vocabulary of the packages predictors
// build on (internal/counter, internal/history, sync/atomic, ...). A call
// to a method with one of these names on a receiver-rooted value is
// treated as a state mutation; the callee's body is in another package
// and out of reach, so the name is the contract.
var crossMutators = map[string]bool{
	"Update": true, "Push": true, "Add": true, "Set": true,
	"Insert": true, "Reset": true, "Train": true, "Record": true,
	"OnCycle": true, "Store": true, "Swap": true, "Clear": true,
	"Write": true, "Delete": true,
}

// pureOp is one potential purity violation inside a function: either a
// direct mutation (callee == nil, msg set) or a call to a same-package
// function that is a violation iff that callee turns out to be impure.
type pureOp struct {
	pos    token.Pos
	msg    string
	callee types.Object
}

func runPredictPure(pass *Pass) {
	rel := pass.RelPath()
	if rel != "internal/predictor" && !strings.HasPrefix(rel, "internal/predictor/") {
		return
	}
	decls := funcDecls(pass)

	// Collect, per function, the operations that mutate (or may mutate)
	// state reachable from that function's receiver and parameters.
	ops := map[types.Object][]pureOp{}
	for obj, fd := range decls {
		ops[obj] = collectPureOps(pass, fd, decls)
	}

	// Fixed point over the package call graph: a function is impure when
	// it mutates directly or calls an impure same-package function with
	// rooted values flowing in.
	impure := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, fops := range ops {
			if impure[obj] {
				continue
			}
			for _, op := range fops {
				if op.callee == nil || impure[op.callee] {
					impure[obj] = true
					changed = true
					break
				}
			}
		}
	}

	for obj, fd := range decls {
		if fd.Recv == nil || !predictMethods[fd.Name.Name] {
			continue
		}
		for _, op := range ops[obj] {
			switch {
			case op.callee == nil:
				pass.Reportf(op.pos, "%s must not mutate predictor state: %s", fd.Name.Name, op.msg)
			case impure[op.callee]:
				pass.Reportf(op.pos, "%s must not mutate predictor state: call to %s, which mutates state reachable from its receiver/arguments", fd.Name.Name, op.callee.Name())
			}
		}
	}
}

// collectPureOps scans one function body for mutations of state reachable
// from the function's receiver or parameters ("rooted" values).
func collectPureOps(pass *Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) []pureOp {
	if fd.Body == nil {
		return nil
	}
	roots := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					roots[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)

	rooted := func(e ast.Expr) bool {
		id := rootIdent(ast.Unparen(e))
		if id == nil {
			return false
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			obj = pass.Info.Defs[id]
		}
		return obj != nil && roots[obj]
	}
	anyRooted := func(args []ast.Expr) bool {
		for _, a := range args {
			if rooted(a) {
				return true
			}
		}
		return false
	}

	var out []pureOp
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
					continue // rebinding a local/parameter variable is not a state mutation
				}
				if rooted(lhs) {
					out = append(out, pureOp{
						pos: lhs.Pos(),
						msg: fmt.Sprintf("assignment to %s mutates state reachable from the receiver", types.ExprString(lhs)),
					})
				}
			}
		case *ast.IncDecStmt:
			if _, bare := ast.Unparen(st.X).(*ast.Ident); !bare && rooted(st.X) {
				out = append(out, pureOp{
					pos: st.Pos(),
					msg: fmt.Sprintf("%s%s mutates state reachable from the receiver", types.ExprString(st.X), st.Tok),
				})
			}
		case *ast.CallExpr:
			switch fun := st.Fun.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.Info.Uses[fun.Sel].(*types.Func)
				if !ok {
					return true
				}
				if fn.Pkg() == pass.Pkg {
					if decls[fn] != nil && (rooted(fun.X) || anyRooted(st.Args)) {
						out = append(out, pureOp{pos: st.Pos(), callee: fn})
					}
				} else if crossMutators[fn.Name()] && rooted(fun.X) {
					out = append(out, pureOp{
						pos: st.Pos(),
						msg: fmt.Sprintf("call to %s mutates state reachable from the receiver", fn.FullName()),
					})
				}
			case *ast.Ident:
				if fn, ok := pass.Info.Uses[fun].(*types.Func); ok && fn.Pkg() == pass.Pkg &&
					decls[fn] != nil && anyRooted(st.Args) {
					out = append(out, pureOp{pos: st.Pos(), callee: fn})
				}
			}
		}
		return true
	})
	return out
}
