package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder returns every range over a map-typed value in pkg. Go randomizes
// map iteration order per run, so any map-ordered effect — an event
// scheduled per entry, a float summed in visit order, a slice appended to —
// forks goldens between runs and between shard layouts. The rule is plain
// rather than proven: engine code ranges over a slice or over sorted keys,
// and a body that happens to be order-neutral is no exception.
func MapOrder(pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pkg.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, Finding{rs.For, "range over a map: map order is randomized per run; index a slice, or range over slices.Sorted(maps.Keys(m))"})
				}
			}
			return true
		})
	}
	return out
}
