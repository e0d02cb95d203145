package lint

// An analysistest-style fixture harness on the stdlib alone: each analyzer
// has a package under testdata/src/<name> whose `// want "regex"` comments
// state the expected diagnostics, line by line. A fixture's import of
// ndp/internal/sim resolves to the stub under testdata/src/ndp/...
// (ExtraSrc), so it type-checks without loading the engine.

import (
	"path/filepath"
	"regexp"
	"testing"
)

var wantRE = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// loadFixture loads the fixture package testdata/src/<name> with stub
// resolution enabled.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	modRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader.ExtraSrc = extra
	pkg, err := loader.load(name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// checkWants matches diagnostics against the fixture's want comments, line
// by line: every diagnostic needs a want, every want a diagnostic.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	type wantKey struct {
		file string
		line int
	}
	wants := map[wantKey][]*regexp.Regexp{}
	total := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					k := wantKey{filepath.Base(pos.Filename), pos.Line}
					wants[k] = append(wants[k], re)
					total++
				}
			}
		}
	}
	if total == 0 {
		t.Fatalf("fixture %s has no want comments", pkg.Path)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := wantKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// runFixture checks an analyzer's diagnostics (after //simlint:allow
// filtering) against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, name, err)
	}
	checkWants(t, pkg, diags)
}

func TestMapOrderFixture(t *testing.T)  { runFixture(t, MapOrder, "maporder") }
func TestWallClockFixture(t *testing.T) { runFixture(t, WallClock, "wallclock") }

// TestAllowWithoutReason: a directive missing its justification (or citing
// an unknown analyzer) is itself a diagnostic.
func TestAllowWithoutReason(t *testing.T) { runFixture(t, AllowCheck, "allow") }
