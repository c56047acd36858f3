package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism forbids nondeterminism sources in simulation packages
// (internal/...): importing math/rand (whose stream changed across Go
// releases — the repo owns internal/rng instead), reading wall clocks with
// time.Now/time.Since, and consulting the environment with
// os.Getenv/os.LookupEnv/os.Environ. Simulation results must be a pure
// function of the configuration and the seed; the same holds for the
// workload generator (internal/workload), whose streams every experiment
// runs straight off, and for trace recordings (internal/trace), which
// replay in place of live generation — any hidden input there would
// silently change every experiment built on them.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand, time.Now/Since and os.Getenv in simulation packages",
	Run:  runDeterminism,
}

var bannedImports = map[string]string{
	"math/rand":    "use internal/rng: math/rand's stream is not stable across Go releases",
	"math/rand/v2": "use internal/rng: simulator streams must be pinned by this repo",
}

var bannedCalls = map[string]string{
	"time.Now":     "wall-clock reads make runs irreproducible",
	"time.Since":   "wall-clock reads make runs irreproducible",
	"os.Getenv":    "environment reads make results depend on the host",
	"os.LookupEnv": "environment reads make results depend on the host",
	"os.Environ":   "environment reads make results depend on the host",
}

func runDeterminism(pass *Pass) {
	if !pass.InSimulation() {
		return
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s in simulation package: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			if why, ok := bannedCalls[fn.FullName()]; ok {
				pass.Reportf(sel.Pos(), "call to %s in simulation package: %s", fn.FullName(), why)
			}
			return true
		})
	}
}
