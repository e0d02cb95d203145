package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoClean runs both checks over every package of the module but the
// wall-clock set, with no exemptions: a package added to the engine is
// checked the day it appears. The wall-clock set — the CLIs, the examples,
// the daemon and this package — measures or reports real time, and nothing
// it reads reaches a simulation.
func TestRepoClean(t *testing.T) {
	modRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path, loader.ModPath+"/")
		if strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") ||
			rel == "internal/simd" || rel == "internal/lint" {
			continue
		}
		checked++
		for _, f := range append(MapOrder(pkg), WallClock(pkg)...) {
			pos := pkg.Fset.Position(f.Pos)
			t.Errorf("%s:%d: %s", pos.Filename, pos.Line, f.Message)
		}
	}
	if checked < 15 {
		t.Fatalf("checked only %d of %d packages, expected the whole engine", checked, len(pkgs))
	}
	t.Logf("checked %d of the module's %d packages", checked, len(pkgs))
}
