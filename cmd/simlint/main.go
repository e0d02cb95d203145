// Command simlint runs the determinism analyzers over the module: map order
// must not leak into event order, and wall time stays out of the virtual
// clock. (The engine's other invariants are enforced where they break — by a
// type, go vet, a panic or the race detector; see package lint.)
//
// Usage:
//
//	simlint [-list] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. Engine
// packages get the full suite; CLIs and the daemon get wallclock +
// allowcheck (see lint.AnalyzersFor). Exit status: 0 clean, 1 findings, 2
// usage or load failure. Suppress a finding with a justified directive:
//
//	//simlint:allow <analyzer> — <reason>
//
// -json emits machine-readable diagnostics (file, line, column, analyzer,
// message) for editor and CI-annotation integration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ndp/internal/lint"
)

// jsonDiagnostic is the machine-readable form of one finding. The -json
// output is an array of these.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print each analyzer's name and doc string, then exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("# load: the module and the GOROOT closure type-check from source in ~1s;\n")
		fmt.Printf("# GOROOT results are cached process-wide, so the sweep shares a single load\n")
		fmt.Printf("# and stays well under 3s end to end.\n")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Match(patterns)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "simlint: no packages match %v\n", patterns)
		os.Exit(2)
	}

	var out []jsonDiagnostic
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.AnalyzersFor(pkg.Path))
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			rel, rerr := filepath.Rel(modRoot, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			out = append(out, jsonDiagnostic{
				File: rel, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonDiagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range out {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(out))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", mustGetwd())
		}
		dir = parent
	}
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
