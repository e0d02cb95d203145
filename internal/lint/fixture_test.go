package lint

// An analysistest-style fixture harness on the stdlib alone: each check
// has a package under testdata/src/<name> whose `// want "regex"` comments
// state the expected findings, line by line. The loader resolves a fixture's
// import path under testdata/src (ExtraSrc); fixtures import the standard
// library only.

import (
	"path/filepath"
	"regexp"
	"testing"
)

var wantRE = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// loadFixture loads the fixture package testdata/src/<name>.
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

// runFixture matches a check's findings on fixture name against its want
// comments, line by line: every finding needs a want, every want a finding.
func runFixture(t *testing.T, check func(*Package) []Finding, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
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

	for _, f := range check(pkg) {
		pos := pkg.Fset.Position(f.Pos)
		k := wantKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, f.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected a finding matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestMapOrderFixture(t *testing.T)  { runFixture(t, MapOrder, "maporder") }
func TestWallClockFixture(t *testing.T) { runFixture(t, WallClock, "wallclock") }
