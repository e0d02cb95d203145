package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// stdCache shares GOROOT type-check results across every Loader in the
// process. The standard library is immutable for the life of a run, and
// signature-only checking it from source costs about a second — paying
// that once per loader made the fixture tests and TestRepoClean re-check
// the same ~150 packages once each. All loaders therefore parse
// into one process-wide fileset (positions in a types.Package are only
// meaningful against the fileset that checked it) and consult this map
// before touching GOROOT.
var stdCache = struct {
	mu   sync.Mutex
	fset *token.FileSet
	pkgs map[string]*types.Package
}{
	fset: token.NewFileSet(),
	pkgs: map[string]*types.Package{},
}

// Package is one module package loaded for analysis: syntax plus full type
// information.
type Package struct {
	Path  string // import path ("ndp/internal/sim")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages from source. Standard
// library dependencies are type-checked from GOROOT source too —
// signatures only, bodies ignored — so the whole pipeline needs no
// compiled export data, no network, and no tools outside the stdlib.
type Loader struct {
	ModRoot string
	ModPath string
	// ExtraSrc, when set, is an analysistest-style source root: a package
	// path resolves to ExtraSrc/<path> when that directory exists, taking
	// priority over module packages. Fixtures live there.
	ExtraSrc string

	fset     *token.FileSet
	ctx      build.Context
	pkgs     map[string]*Package       // loaded module/fixture packages
	std      map[string]*types.Package // loaded stdlib packages
	checking map[string]bool           // import-cycle guard
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// Pure-Go file selection: cgo variants of stdlib packages (net, ...)
	// need compiled C shims we neither have nor want; every cgo-using
	// package has a pure fallback under this setting.
	ctx.CgoEnabled = false
	return &Loader{
		ModRoot:  modRoot,
		ModPath:  modPath,
		fset:     stdCache.fset,
		ctx:      ctx,
		pkgs:     map[string]*Package{},
		std:      map[string]*types.Package{},
		checking: map[string]bool{},
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}

// Packages loads every package of the module, in directory order: each
// directory under the module root holding a non-test .go file, skipping
// testdata, dot and underscore directories and nested modules (benchmark/
// has a go.mod of its own).
func (l *Loader) Packages() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != l.ModRoot {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if len(l.sourceFiles(p)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModRoot, p)
		if err != nil {
			return err
		}
		path := l.ModPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	return pkgs, err
}

// sourceFiles lists the non-test .go files of dir, sorted.
func (l *Loader) sourceFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out
}

// load parses and fully type-checks one module/fixture package.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files := l.sourceFiles(dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var syntax []*ast.File
	for _, fname := range files {
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: syntax, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// dirFor resolves an import path to a directory: fixture root first, then
// the module tree.
func (l *Loader) dirFor(path string) (string, error) {
	if l.ExtraSrc != "" {
		if d := filepath.Join(l.ExtraSrc, filepath.FromSlash(path)); len(l.sourceFiles(d)) > 0 {
			return d, nil
		}
	}
	if path == l.ModPath {
		return l.ModRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), nil
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module %s)", path, l.ModPath)
}

// inModule reports whether the import path belongs to the module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// loaderImporter adapts the loader to go/types: module packages get the
// full treatment, the standard library is checked signatures-only.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.loadStd(path, srcDir)
}

// loadStd type-checks a GOROOT package from source with function bodies
// ignored: consumers only need exported types, constants and signatures.
// srcDir seeds go/build's vendor resolution (net/http imports vendored
// golang.org/x/... packages relative to GOROOT/src).
func (l *Loader) loadStd(path, srcDir string) (*types.Package, error) {
	if pkg, ok := l.std[path]; ok {
		return pkg, nil
	}
	stdCache.mu.Lock()
	cached := stdCache.pkgs[path]
	stdCache.mu.Unlock()
	if cached != nil {
		l.std[path] = cached
		return cached, nil
	}
	key := path
	if l.checking["std:"+key] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking["std:"+key] = true
	defer delete(l.checking, "std:"+key)

	bp, err := l.ctx.Import(path, srcDir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolving %q: %v", path, err)
	}
	var syntax []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer:         &stdImporter{l: l, dir: bp.Dir},
		IgnoreFuncBodies: true,
		Error:            func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(bp.ImportPath, l.fset, syntax, nil)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	tpkg.MarkComplete()
	// Cache under both the requested and the resolved path (vendored
	// packages answer to their short name), locally and process-wide.
	l.std[path] = tpkg
	l.std[bp.ImportPath] = tpkg
	stdCache.mu.Lock()
	stdCache.pkgs[path] = tpkg
	stdCache.pkgs[bp.ImportPath] = tpkg
	stdCache.mu.Unlock()
	return tpkg, nil
}

// stdImporter resolves a stdlib package's own imports relative to its
// directory, so GOROOT vendoring works.
type stdImporter struct {
	l   *Loader
	dir string
}

func (si *stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return si.l.loadStd(path, si.dir)
}
