package ndp

// The docs quote facts that rot: counts from the BENCH reports, the list of
// fuzz targets, and the headings other files point at. These tests make
// each quote executable, so a stale one fails under its own name:
//
//	go test -run TestDoc .

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docFiles returns README.md and every docs/*.md, path to content.
func docFiles(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, p := range append(paths, "README.md") {
		out[p] = readFile(t, p)
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocShape: one front page and one document per mechanism, each in the
// same three parts, inside a line budget that keeps the docs from becoming
// a lab notebook again.
func TestDocShape(t *testing.T) {
	docs := docFiles(t)
	lines := 0
	for path, text := range docs {
		lines += strings.Count(text, "\n")
		if path == "README.md" {
			if n := strings.Count(text, "\n"); n > 400 {
				t.Errorf("README.md is %d lines, budget 400: a mechanism's detail belongs in docs/", n)
			}
			continue
		}
		var parts []string
		for _, h := range headings(text) {
			if h.level == 2 {
				parts = append(parts, h.text)
			}
		}
		if want := []string{"Design", "Numbers", "Tried and lost"}; !slices.Equal(parts, want) {
			t.Errorf("%s has parts %q, want %q", path, parts, want)
		}
	}
	if len(docs) != 7 {
		t.Errorf("README.md and %d docs, want six docs/*.md", len(docs)-1)
	}
	if lines > 1200 {
		t.Errorf("README.md and docs/ are %d lines together, budget 1,200", lines)
	}
}

// benchRows loads the newest BENCH_<n>.json and returns its name, its rows
// by name (each flattened to its leaf fields), and every field name any row
// has.
func benchRows(t *testing.T) (string, map[string]map[string]any, map[string]bool) {
	t.Helper()
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json (%v)", err)
	}
	num := func(p string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(p, "BENCH_"), ".json"))
		return n
	}
	newest := slices.MaxFunc(paths, func(a, b string) int { return num(a) - num(b) })
	var rep struct{ Results []map[string]any }
	if err := json.Unmarshal([]byte(readFile(t, newest)), &rep); err != nil {
		t.Fatal(err)
	}
	rows, fields := map[string]map[string]any{}, map[string]bool{}
	var flatten func(into map[string]any, m map[string]any)
	flatten = func(into map[string]any, m map[string]any) {
		for k, v := range m {
			if sub, ok := v.(map[string]any); ok {
				flatten(into, sub)
			} else if f, ok := v.(float64); ok {
				into[k], fields[k] = f, true
			}
		}
	}
	for _, r := range rep.Results {
		row := map[string]any{}
		flatten(row, r)
		rows[r["name"].(string)] = row
	}
	return newest, rows, fields
}

var benchTableRE = regexp.MustCompile(`^(BENCH_\d+\.json) row$`)

// TestDocBenchNumbers (a): a table cell whose header names a field of a
// BENCH row, in a row whose first cell names that BENCH row, must equal the
// field in the newest report, to the precision the cell is written in. A
// table whose first header is "BENCH_<n>.json row" must name the newest
// report and key every row by a BENCH row. Every docs/*.md quotes some.
func TestDocBenchNumbers(t *testing.T) {
	newest, rows, fields := benchRows(t)
	total := 0
	for path, text := range docFiles(t) {
		checked := 0
		for _, tab := range tables(text) {
			keyed := false
			if m := benchTableRE.FindStringSubmatch(tab.header[0]); m != nil {
				keyed = true
				if m[1] != newest {
					t.Errorf("%s:%d: the table quotes %s, the newest report is %s", path, tab.line, m[1], newest)
				}
			}
			for i, cells := range tab.rows {
				line := tab.line + 2 + i
				row, ok := rows[cells[0]]
				if !ok {
					if keyed {
						t.Errorf("%s:%d: %q names no row of %s", path, line, cells[0], newest)
					}
					continue
				}
				for c, field := range tab.header {
					if c == 0 || c >= len(cells) || !fields[field] {
						continue
					}
					checked++
					v, has := row[field]
					if !has {
						if cells[c] != "—" {
							t.Errorf("%s:%d: %s has no %s, the cell reads %q (want —)", path, line, cells[0], field, cells[c])
						}
						continue
					}
					got := strings.ReplaceAll(cells[c], ",", "")
					decimals := 0
					if i := strings.IndexByte(got, '.'); i >= 0 {
						decimals = len(got) - i - 1
					}
					if want := strconv.FormatFloat(v.(float64), 'f', decimals, 64); got != want {
						t.Errorf("%s:%d: %s %s reads %s, %s has %s", path, line, cells[0], field, cells[c], newest, want)
					}
				}
			}
		}
		if strings.HasPrefix(path, "docs/") && checked == 0 {
			t.Errorf("%s quotes no cell of %s: its Numbers part keys a table by BENCH row", path, newest)
		}
		total += checked
	}
	t.Logf("%d cells checked against %s", total, newest)
}

// TestDocFuzzTargets (b): docs/determinism.md lists every func Fuzz* in the
// tree with its package, and marks exactly the ones ci.yml fuzzes.
func TestDocFuzzTargets(t *testing.T) {
	tree := map[string]string{} // target -> package directory
	fuzzRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	walkGo(t, func(path, text string) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range fuzzRE.FindAllStringSubmatch(text, -1) {
				tree[m[1]] = filepath.ToSlash(filepath.Dir(path))
			}
		}
	})
	ci := map[string]bool{}
	for _, m := range regexp.MustCompile(`-fuzz=(Fuzz\w+)`).FindAllStringSubmatch(readFile(t, ".github/workflows/ci.yml"), -1) {
		ci[m[1]] = true
	}
	listed := map[string]bool{}
	for _, tab := range tables(readFile(t, "docs/determinism.md")) {
		if tab.header[0] != "fuzz target" {
			continue
		}
		for _, cells := range tab.rows {
			if len(cells) < 3 {
				t.Errorf("docs/determinism.md: fuzz-target row %q, want target, package and CI", cells)
				continue
			}
			name := cells[0]
			listed[name] = true
			if pkg, ok := tree[name]; !ok {
				t.Errorf("docs/determinism.md lists %s, which no test file declares", name)
			} else if cells[1] != pkg {
				t.Errorf("docs/determinism.md puts %s in %s, it is in %s", name, cells[1], pkg)
			}
			if marked := cells[2] != "—"; marked != ci[name] {
				t.Errorf("docs/determinism.md marks %s as fuzzed in CI: %v; ci.yml: %v", name, marked, ci[name])
			}
		}
	}
	for name, pkg := range tree {
		if !listed[name] {
			t.Errorf("%s (%s) is missing from docs/determinism.md's fuzz targets", name, pkg)
		}
	}
	if len(tree) == 0 || len(ci) == 0 {
		t.Fatalf("found %d fuzz targets in the tree and %d in ci.yml", len(tree), len(ci))
	}
}

// TestDocReferences (c): a reference to a section, README or
// docs/<file>.md followed by the heading in double quotes, in Go code, the
// CI workflows, the verify skill or the docs names a heading that exists,
// and every docs/<file>.md named exists. Comment lines are joined first, so
// a reference may wrap.
func TestDocReferences(t *testing.T) {
	sources := map[string]string{}
	walkGo(t, func(path, text string) { sources[path] = text })
	for path, text := range docFiles(t) {
		sources[path] = text
	}
	extra, _ := filepath.Glob(".github/workflows/*.yml")
	for _, p := range append(extra, ".claude/skills/verify/SKILL.md") {
		sources[p] = readFile(t, p)
	}
	join := regexp.MustCompile(`[ \t]*\r?\n[ \t]*(?://+|#+)?[ \t]*`)
	refRE := regexp.MustCompile(`(?:^|[^/\w])(README|docs/[\w-]+\.md) "([^"]+)"`)
	fileRE := regexp.MustCompile(`(?:^|[^/\w])(docs/[\w-]+\.md)`)
	heads := map[string]map[string]bool{}
	headsOf := func(file string) map[string]bool {
		if h, ok := heads[file]; ok {
			return h
		}
		b, err := os.ReadFile(file)
		if err != nil {
			heads[file] = nil
			return nil
		}
		heads[file] = map[string]bool{}
		for _, h := range headings(string(b)) {
			heads[file][h.text] = true
		}
		return heads[file]
	}
	refs := 0
	for src, text := range sources {
		text = join.ReplaceAllString(text, " ")
		for _, m := range fileRE.FindAllStringSubmatch(text, -1) {
			if headsOf(m[1]) == nil {
				t.Errorf("%s names %s, which does not exist", src, m[1])
			}
		}
		for _, m := range refRE.FindAllStringSubmatch(text, -1) {
			refs++
			file := m[1]
			if file == "README" {
				file = "README.md"
			}
			if h := headsOf(file); h != nil && !h[m[2]] {
				t.Errorf("%s refers to %s %q, which has no such heading", src, m[1], m[2])
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no heading references at all")
	}
	t.Logf("%d heading references in %d files", refs, len(sources))
}

// walkGo calls fn for every .go file of the module, test files included,
// skipping hidden directories and testdata.
func walkGo(t *testing.T, fn func(path, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(path, readFile(t, path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type heading struct {
	level int
	text  string
}

// headings returns a Markdown text's ATX headings, outside code fences.
func headings(text string) []heading {
	var out []heading
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		level := len(line) - len(strings.TrimLeft(line, "#"))
		if fenced || level == 0 || level > 6 || !strings.HasPrefix(line[level:], " ") {
			continue
		}
		out = append(out, heading{level, strings.TrimSpace(line[level:])})
	}
	return out
}

// table is one Markdown table: its header cells, its body rows' cells (both
// with backticks and surrounding space stripped) and the line of its header.
type table struct {
	header []string
	rows   [][]string
	line   int
}

// tables returns a Markdown text's pipe tables, including indented ones.
func tables(text string) []table {
	var out []table
	lines := strings.Split(text, "\n")
	cells := func(line string) []string {
		line = strings.Trim(strings.TrimSpace(line), "|")
		var c []string
		for _, s := range strings.Split(line, "|") {
			c = append(c, strings.TrimSpace(strings.ReplaceAll(s, "`", "")))
		}
		return c
	}
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), "|") || !strings.HasPrefix(strings.TrimSpace(lines[i+1]), "|-") {
			continue
		}
		tab := table{header: cells(lines[i]), line: i + 1}
		for i += 2; i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "|"); i++ {
			tab.rows = append(tab.rows, cells(lines[i]))
		}
		out = append(out, tab)
	}
	return out
}
