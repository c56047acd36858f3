package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseExpr parses one expression for the rootIdent table.
func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	return e
}

func TestRootIdent(t *testing.T) {
	cases := []struct {
		expr string
		want string // "" = nil: the chain is not rooted in an identifier
	}{
		{"x", "x"},
		{"x.f", "x"},
		{"x.f.g", "x"},
		{"x[i]", "x"},
		{"x.f[i].g", "x"},
		{"(x)", "x"},
		{"(*x).f", "x"},
		{"*x", "x"},
		{"f()", ""},
		{"f().g", ""},
		{"[]int{1}", ""},
		{"m[k].f", "m"},
		{"&x", ""}, // unary & is not part of an access chain
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			id := rootIdent(parseExpr(t, tc.expr))
			switch {
			case tc.want == "" && id != nil:
				t.Fatalf("rootIdent(%s) = %s, want nil", tc.expr, id.Name)
			case tc.want != "" && id == nil:
				t.Fatalf("rootIdent(%s) = nil, want %s", tc.expr, tc.want)
			case tc.want != "" && id.Name != tc.want:
				t.Fatalf("rootIdent(%s) = %s, want %s", tc.expr, id.Name, tc.want)
			}
		})
	}
}

// flowProbe walks a single-function file and captures, at each marked call
// site probe(n), the enclosing function exactly as the analyzers see it
// during inspectStack.
func flowProbe(t *testing.T, src string) map[int]ast.Node {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "probe.go", src, 0)
	if err != nil {
		t.Fatalf("parsing probe source: %v", err)
	}
	fns := map[int]ast.Node{}
	inspectStack([]*ast.File{file}, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "probe" || len(call.Args) != 1 {
			return
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return
		}
		k := 0
		for _, c := range lit.Value {
			k = k*10 + int(c-'0')
		}
		fns[k] = enclosingFunc(stack)
	})
	return fns
}

const flowProbeSrc = `package p

func probe(int) {}

func f(cond bool, xs []int) {
	probe(0)
	if cond {
		probe(1)
		for range xs {
			probe(2)
		}
	} else {
		probe(3)
	}
	switch {
	case cond:
		probe(4)
	}
	g := func() {
		probe(5)
	}
	g()
	probe(6)
}
`

// TestEnclosingFunc pins enclosingFunc's scopes: a closure is its own
// function, and every nested block of f shares f's.
func TestEnclosingFunc(t *testing.T) {
	fns := flowProbe(t, flowProbeSrc)
	if fns[5] == fns[0] {
		t.Errorf("probe(5) inside the closure reports the same scope as probe(0)")
	}
	for _, k := range []int{1, 2, 3, 4, 6} {
		if fns[k] != fns[0] {
			t.Errorf("probe(%d) does not share f's scope", k)
		}
	}
}
