// Package lint implements simlint, the static analyzers for the two
// determinism invariants of the simulation engine that nothing else in the
// tree can see break:
//
//   - virtual time is the only clock inside the engine; wall time lives in
//     the bench/daemon layers under annotated exemptions (wallclock);
//   - map iteration order never leaks into event order or floating-point
//     accumulation order (maporder).
//
// Every other invariant is enforced where it breaks, not argued about its
// source: a sim.Rand cannot be copied (noCopy, go vet), a packet no arena
// owns panics in fabric.Free, a deferred command inside the pair lookahead
// panics in topo's Defer, a mailbox can only be scheduled by its own
// unexported handler, and state shared across shards is a report of the
// shard matrix under -race. What the hot paths allocate is measured:
// scenario.TestSteadyStateAllocs and TestChurnAllocsPerFlow. README
// "Determinism discipline" has the table and the seeded regressions.
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic — but is built on the standard library alone so that
// `go run ./cmd/simlint ./...` is reproducible from a fresh clone with no
// network and no module downloads.
//
// A finding can be suppressed with a justified directive on the flagged
// line or the line above:
//
//	//simlint:allow <analyzer> — <reason>
//
// The reason is mandatory; a directive without one is itself a diagnostic
// (allowcheck), so exemptions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check over one type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //simlint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is the human-readable description printed by `simlint -list`.
	// The first sentence is the summary.
	Doc string
	// Run performs the analysis over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package's fileset.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full catalog in stable order. allowcheck is part of
// the catalog so the suppression grammar is itself enforced.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, AllowCheck}
}

// knownAnalyzers is the set of names a //simlint:allow directive may cite,
// knownAnalyzerList the same names in catalog order. Filled by init (not a
// var initializer) because AllowCheck consults them.
var (
	knownAnalyzers    = map[string]bool{}
	knownAnalyzerList []string
)

func init() {
	for _, a := range Analyzers() {
		knownAnalyzers[a.Name] = true
		knownAnalyzerList = append(knownAnalyzerList, a.Name)
	}
}

// enginePrefixes are the import paths whose code runs inside the virtual
// clock: every analyzer applies. Everything else (CLIs, the daemon, this
// package) is wall-clock land and gets only wallclock + allowcheck, with
// annotated exemptions where real time is the point.
var enginePrefixes = []string{
	"ndp",
	"ndp/scenario",
	"ndp/internal/sim",
	"ndp/internal/fabric",
	"ndp/internal/core",
	"ndp/internal/cp",
	"ndp/internal/tcp",
	"ndp/internal/dctcp",
	"ndp/internal/mptcp",
	"ndp/internal/phost",
	"ndp/internal/dcqcn",
	"ndp/internal/p4",
	"ndp/internal/hostmodel",
	"ndp/internal/topo",
	"ndp/internal/workload",
	"ndp/internal/harness",
	"ndp/internal/stats",
}

// EnginePackage reports whether importPath is simulation-engine code, where
// the full suite applies.
func EnginePackage(importPath string) bool {
	for _, p := range enginePrefixes {
		if importPath == p {
			return true
		}
	}
	return false
}

// AnalyzersFor returns the analyzers that apply to a package: the whole
// catalog for engine packages, wallclock + allowcheck elsewhere.
func AnalyzersFor(importPath string) []*Analyzer {
	if EnginePackage(importPath) {
		return Analyzers()
	}
	return []*Analyzer{WallClock, AllowCheck}
}

// Run applies the given analyzers to one loaded package, filters findings
// through the package's //simlint:allow directives, and returns the
// survivors sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := parseAllowDirectives(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
		out = append(out, allows.filter(pkg.Fset, a.Name, pass.diags)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ---------------------------------------------------------- type helpers ----

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

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	for _, n := range names {
		if id.Name == n {
			return true
		}
	}
	return false
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
