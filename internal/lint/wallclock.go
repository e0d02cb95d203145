package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// WallClock returns pkg's reads of real time and imports of math/rand.
// Inside the engine the only clock is the EventList's virtual now; a
// time.Now comparison, a wall-clock-derived seed, or the global math/rand
// stream makes results depend on the machine and the moment instead of
// (spec, seed).
func WallClock(pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, Finding{imp.Pos(), "import of " + path + ": the global math/rand stream is shared mutable state seeded off wall time; use a component-local sim.Rand derived via SplitSeed"})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since", "Sleep":
				out = append(out, Finding{call.Pos(), "wall clock time." + fn.Name() + " in simulation code: read virtual time from the event list's Now, and schedule instead of sleeping"})
			}
			return true
		})
	}
	return out
}

// calleeFunc resolves a call's callee to its declared types.Func, or nil
// (builtin, conversion, func-typed variable).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}
