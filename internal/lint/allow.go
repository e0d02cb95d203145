package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is one parsed //simlint:allow comment.
type allowDirective struct {
	pos      token.Pos
	line     int    // line the comment sits on
	analyzer string // cited analyzer name ("" when malformed beyond repair)
	reason   string // justification after the separator ("" when missing)
}

// allowSet indexes the well-formed directives of a package by analyzer and
// line, and keeps the malformed ones for AllowCheck to report.
type allowSet struct {
	// byAnalyzer[name] lists the lines covered by a justified directive: the
	// directive's own line and the line below it (so a directive may trail
	// the flagged statement or sit on its own line directly above).
	byAnalyzer map[string]map[int]*allowDirective
	malformed  []*allowDirective
	all        []*allowDirective
}

const allowPrefix = "simlint:allow"

// parseAllowDirectives scans every comment of the package for
// //simlint:allow directives. Grammar:
//
//	//simlint:allow <analyzer> — <reason>
//
// The separator may be an em-dash or "--". Directives missing the analyzer
// name, the separator, or a non-empty reason are collected as malformed and
// suppress nothing.
func parseAllowDirectives(fset *token.FileSet, files []*ast.File) *allowSet {
	s := &allowSet{byAnalyzer: map[string]map[int]*allowDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments cannot carry directives
				}
				text, ok = strings.CutPrefix(text, allowPrefix)
				if !ok {
					continue
				}
				d := &allowDirective{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
				s.all = append(s.all, d)
				rest := strings.TrimSpace(text)
				name, reason, ok := cutSeparator(rest)
				if !ok {
					// No separator: the whole rest is at best a name.
					d.analyzer = firstField(rest)
					s.malformed = append(s.malformed, d)
					continue
				}
				d.analyzer = strings.TrimSpace(name)
				d.reason = strings.TrimSpace(reason)
				if d.analyzer == "" || strings.ContainsAny(d.analyzer, " \t") || d.reason == "" {
					s.malformed = append(s.malformed, d)
					continue
				}
				m := s.byAnalyzer[d.analyzer]
				if m == nil {
					m = map[int]*allowDirective{}
					s.byAnalyzer[d.analyzer] = m
				}
				// Later directives on the same line win; irrelevant in practice.
				m[d.line] = d
				if _, taken := m[d.line+1]; !taken {
					m[d.line+1] = d
				}
			}
		}
	}
	return s
}

// cutSeparator splits "name — reason" on the first em-dash or " -- ".
func cutSeparator(s string) (name, reason string, ok bool) {
	if i := strings.Index(s, "—"); i >= 0 {
		return s[:i], s[i+len("—"):], true
	}
	if i := strings.Index(s, " -- "); i >= 0 {
		return s[:i], s[i+4:], true
	}
	return "", "", false
}

// knownAnalyzerNames renders the catalog names in stable order for the
// unknown-analyzer diagnostic.
func knownAnalyzerNames() string { return strings.Join(knownAnalyzerList, ", ") }

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return ""
}

// filter drops diagnostics covered by a justified directive for the given
// analyzer.
func (s *allowSet) filter(fset *token.FileSet, analyzer string, diags []Diagnostic) []Diagnostic {
	m := s.byAnalyzer[analyzer]
	if len(m) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		if _, ok := m[fset.Position(d.Pos).Line]; ok {
			continue
		}
		out = append(out, d)
	}
	return out
}

// AllowCheck enforces the suppression grammar itself: every directive must
// cite a known analyzer and give a justification. Without this, allows rot
// into unaudited blanket exemptions.
var AllowCheck = &Analyzer{
	Name: "allowcheck",
	Doc: "reports //simlint:allow directives that are missing the mandatory justification " +
		"(`//simlint:allow <analyzer> — <reason>`) or that cite an unknown analyzer; " +
		"malformed directives suppress nothing",
	Run: runAllowCheck,
}

func runAllowCheck(p *Pass) error {
	s := parseAllowDirectives(p.Fset, p.Files)
	for _, d := range s.malformed {
		p.Reportf(d.pos, "simlint:allow directive requires a justification: //simlint:allow <analyzer> — <reason>")
	}
	for _, d := range s.all {
		if d.reason != "" && d.analyzer != "" && !knownAnalyzers[d.analyzer] {
			p.Reportf(d.pos, "simlint:allow cites unknown analyzer %q (known: %s)", d.analyzer, knownAnalyzerNames())
		}
	}
	return nil
}
