package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalog pins the analyzer catalog: names, docs, uniqueness, and the
// allow-directive known-set staying in lockstep with it.
func TestCatalog(t *testing.T) {
	as := Analyzers()
	if len(as) != 3 {
		t.Fatalf("catalog has %d analyzers, want exactly 3", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or Run", a)
		}
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lowercase with no spaces", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !knownAnalyzers[a.Name] {
			t.Errorf("analyzer %q missing from the allow-directive known-set", a.Name)
		}
	}
	for name := range knownAnalyzers {
		if !seen[name] {
			t.Errorf("known-set entry %q has no analyzer", name)
		}
	}
	for _, want := range []string{"maporder", "wallclock", "allowcheck"} {
		if !seen[want] {
			t.Errorf("catalog is missing %q", want)
		}
	}
}

// TestPolicy pins which packages get the full suite.
func TestPolicy(t *testing.T) {
	for _, p := range []string{"ndp", "ndp/scenario", "ndp/internal/sim", "ndp/internal/harness", "ndp/internal/dcqcn"} {
		if !EnginePackage(p) {
			t.Errorf("%s should be an engine package", p)
		}
		if len(AnalyzersFor(p)) != len(Analyzers()) {
			t.Errorf("%s should get the full suite", p)
		}
	}
	for _, p := range []string{"ndp/cmd/ndpsim", "ndp/internal/simd", "ndp/internal/lint", "ndp/examples/quickstart"} {
		if EnginePackage(p) {
			t.Errorf("%s should not be an engine package", p)
		}
		names := map[string]bool{}
		for _, a := range AnalyzersFor(p) {
			names[a.Name] = true
		}
		if !names["wallclock"] || !names["allowcheck"] {
			t.Errorf("%s should still get wallclock+allowcheck, got %v", p, names)
		}
		if names["maporder"] {
			t.Errorf("%s should not get maporder", p)
		}
	}
}

// TestDirectiveParsing pins the suppression grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		in           string
		name, reason string
		ok           bool
	}{
		{"maporder — keys sorted below", "maporder", "keys sorted below", true},
		{"maporder -- keys sorted below", "maporder", "keys sorted below", true},
		{"maporder", "", "", false},
		{"maporder —", "", "", false},
		{"— reason only", "", "", false},
		{"two words — reason", "", "", false},
	}
	for _, c := range cases {
		name, reason, ok := cutSeparator(c.in)
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		wellFormed := ok && name != "" && !strings.ContainsAny(name, " \t") && reason != ""
		if wellFormed != c.ok {
			t.Errorf("directive %q: well-formed = %v, want %v", c.in, wellFormed, c.ok)
			continue
		}
		if c.ok && (name != c.name || reason != c.reason) {
			t.Errorf("directive %q: parsed (%q, %q), want (%q, %q)", c.in, name, reason, c.name, c.reason)
		}
	}
}

// TestMatchPattern pins the driver's package pattern subset.
func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, path string
		want      bool
	}{
		{"./...", "ndp", true},
		{"./...", "ndp/internal/sim", true},
		{"./internal/...", "ndp/internal/sim", true},
		{"./internal/...", "ndp/scenario", false},
		{"./scenario", "ndp/scenario", true},
		{"./scenario", "ndp/scenario/sub", false},
	}
	for _, c := range cases {
		if got := matchPattern("ndp", c.pat, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

// TestRepoClean runs the full policy over the real module: the tree must
// stay free of determinism findings, so a violation fails `go test` even
// before the CI simlint step sees it.
func TestRepoClean(t *testing.T) {
	modRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, AnalyzersFor(pkg.Path))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d: %s (%s)", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
}
