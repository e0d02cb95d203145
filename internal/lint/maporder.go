package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// MapOrder returns pkg's map ranges whose body is not provably
// order-neutral. Go randomizes map iteration order per run, so any
// map-ordered effect — an event scheduled per entry, a float summed in
// visit order, a slice appended to — forks goldens between runs and between
// shard layouts.
func MapOrder(pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			c := &mapBodyChecker{info: pkg.Info, key: rangeKeyObject(pkg.Info, rs)}
			if reason := c.blockSafe(rs.Body); reason != "" {
				out = append(out, Finding{rs.For, "map iteration " + reason + "; map order is randomized per run: range over slices.Sorted(maps.Keys(m)), or keep the body to integer or per-key updates"})
			}
			return true
		})
	}
	return out
}

// rangeKeyObject returns the object of the range key variable, when the
// statement declares or assigns one.
func rangeKeyObject(info *types.Info, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// mapBodyChecker decides whether a map-range body is order-neutral. The
// whitelist is deliberately small; anything it cannot prove commutative is
// unsafe and the returned reason says why.
type mapBodyChecker struct {
	info *types.Info
	key  types.Object // the range key variable; map writes must be keyed by it
}

func (c *mapBodyChecker) blockSafe(b *ast.BlockStmt) (reason string) {
	for _, s := range b.List {
		if r := c.stmtSafe(s); r != "" {
			return r
		}
	}
	return ""
}

func (c *mapBodyChecker) stmtSafe(s ast.Stmt) (reason string) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assignSafe(s)
	case *ast.IncDecStmt:
		if !isIntType(c.info.TypeOf(s.X)) {
			return "increments a non-integer in map order"
		}
		return c.exprsPure(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			if r := c.stmtSafe(s.Init); r != "" {
				return r
			}
		}
		if r := c.exprsPure(s.Cond); r != "" {
			return r
		}
		if r := c.blockSafe(s.Body); r != "" {
			return r
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				return c.blockSafe(e)
			case *ast.IfStmt:
				return c.stmtSafe(e)
			}
		}
		return ""
	case *ast.BlockStmt:
		return c.blockSafe(s)
	case *ast.ExprStmt:
		// Only delete(m, k) keyed by the range key is known commutative.
		if call, ok := s.X.(*ast.CallExpr); ok && isBuiltin(c.info, call, "delete") {
			if len(call.Args) == 2 && c.mentionsKey(call.Args[1]) {
				return c.exprsPure(call.Args...)
			}
			return "deletes under a key other than the range key"
		}
		if r := c.exprsPure(s.X); r != "" {
			return r
		}
		return "contains a statement the analyzer cannot prove order-neutral"
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return fmt.Sprintf("uses %v, so which entries run depends on visit order", s.Tok)
	case *ast.DeclStmt:
		// Local declarations with pure initializers are fine.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return "declares in a way the analyzer cannot prove order-neutral"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				if r := c.exprsPure(vs.Values...); r != "" {
					return r
				}
			}
		}
		return ""
	default:
		return "contains a statement the analyzer cannot prove order-neutral"
	}
}

// assignSafe admits two commutative shapes: writes into a map slot keyed by
// the range key (each iteration touches a distinct slot), and integer
// accumulation with a commutative operator.
func (c *mapBodyChecker) assignSafe(s *ast.AssignStmt) (reason string) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			ix, ok := ast.Unparen(l).(*ast.IndexExpr)
			if !ok {
				return "writes a variable whose final value depends on visit order"
			}
			if bt := c.info.TypeOf(ix.X); bt == nil {
				return "writes a variable whose final value depends on visit order"
			} else if _, isMap := bt.Underlying().(*types.Map); !isMap {
				return "writes indexed storage the analyzer cannot prove per-key"
			}
			if !c.mentionsKey(ix.Index) {
				return "writes a map under a key other than the range key (collisions resolve in visit order)"
			}
			if r := c.exprsPure(ix.X, ix.Index); r != "" {
				return r
			}
		}
		return c.exprsPure(s.Rhs...)
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		if len(s.Lhs) != 1 {
			return "compound-assigns multiple values"
		}
		if !isIntType(c.info.TypeOf(s.Lhs[0])) {
			return "accumulates floating point in map order (float addition does not commute bit-for-bit)"
		}
		if r := c.exprsPure(s.Lhs[0]); r != "" {
			return r
		}
		return c.exprsPure(s.Rhs...)
	default:
		return fmt.Sprintf("uses %v, which is not order-neutral", s.Tok)
	}
}

// mentionsKey reports whether the range key variable appears in e.
func (c *mapBodyChecker) mentionsKey(e ast.Expr) bool {
	if c.key == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == c.key {
			found = true
		}
		return !found
	})
	return found
}

// exprsPure rejects expressions with effects or order-sensitive calls: any
// call except len/cap/min/max and type conversions, channel receives, and
// closures are unsafe.
func (c *mapBodyChecker) exprsPure(exprs ...ast.Expr) (reason string) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if reason != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if isBuiltin(c.info, n, "len", "cap", "min", "max") || isConversion(c.info, n) {
					return true
				}
				reason = "calls " + callName(n) + " inside the loop (effects may depend on visit order)"
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					reason = "receives from a channel inside the loop"
					return false
				}
			case *ast.FuncLit:
				reason = "builds a closure inside the loop"
				return false
			}
			return true
		})
		if reason != "" {
			return reason
		}
	}
	return ""
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "a function"
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isBuiltin reports whether the call invokes one of the named builtins.
func isBuiltin(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	return slices.Contains(names, id.Name)
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
