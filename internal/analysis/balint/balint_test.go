package balint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"expensive/internal/analysis"
	"expensive/internal/analysis/analysistest"
	"expensive/internal/analysis/balint"
)

// TestSuppression runs the whole suite over the supp fixture: a
// //balint:allow directive silences exactly the named analyzer
// (globalrand suppressed, a maporder-addressed directive leaves the
// globalrand finding live) on exactly the annotated line (directive
// above or trailing works, two lines away does not).
func TestSuppression(t *testing.T) {
	diags := analysistest.Run(t, "testdata", balint.Suite(), "supp")
	var suppressed []analysis.Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 2 {
		t.Fatalf("suppressed %d diagnostics, want 2 (directive above + trailing): %v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Analyzer != "globalrand" {
			t.Errorf("suppressed a %s diagnostic; only globalrand findings carry directives", d.Analyzer)
		}
		if d.Reason == "" {
			t.Errorf("%s: suppressed without a recorded reason", d.Pos)
		}
	}
}

// TestMalformedDirectives loads the malformed workspace directly (want
// comments cannot share a line with a //balint: directive — the
// directive runs to end of line) and checks that every broken directive
// is reported as an unsuppressable "balint" diagnostic and silences
// nothing.
func TestMalformedDirectives(t *testing.T) {
	prog, err := analysis.LoadTree("testdata/malformed/src")
	if err != nil {
		t.Fatalf("load malformed workspace: %v", err)
	}
	diags, err := analysis.Run(prog, balint.Suite(), balint.Names())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}

	var directiveMsgs []string
	var randHits int
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("%s: malformed directive must never suppress, but this is marked suppressed", d.Pos)
		}
		switch d.Analyzer {
		case analysis.DirectiveAnalyzer:
			directiveMsgs = append(directiveMsgs, d.Message)
		case "globalrand":
			randHits++
		default:
			t.Errorf("unexpected %s diagnostic: %s", d.Analyzer, d)
		}
	}
	if randHits != 4 {
		t.Errorf("globalrand findings = %d, want 4 (one per broken directive)", randHits)
	}
	for _, want := range []string{
		"//balint:allow globalrand needs a reason",
		"needs an analyzer name and a reason",
		"unknown //balint: directive verb",
		`names unknown analyzer "nosuch"`,
	} {
		found := false
		for _, msg := range directiveMsgs {
			if strings.Contains(msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no balint diagnostic containing %q (got %v)", want, directiveMsgs)
		}
	}
	if len(directiveMsgs) != 4 {
		t.Errorf("balint directive diagnostics = %d, want 4: %v", len(directiveMsgs), directiveMsgs)
	}
}

// TestModuleIsClean lints the real repository: the tree must carry no
// unsuppressed findings, and every suppression must state its reason.
// Deleting a //balint:allow that suppresses a finding, or re-introducing
// a map range on a report path, fails this test the same way
// scripts/lint.sh and the CI lint job would fail. A directive that
// suppresses nothing is TestEveryDirectiveSuppresses' to catch.
func TestModuleIsClean(t *testing.T) {
	diags, err := balint.LintModule("../../..")
	if err != nil {
		t.Fatalf("lint module: %v", err)
	}
	for _, d := range analysis.Unsuppressed(diags) {
		t.Errorf("unsuppressed finding: %s", d)
	}
	suppressedBy := map[string]int{}
	for _, d := range diags {
		if d.Suppressed {
			suppressedBy[d.Analyzer]++
			if strings.TrimSpace(d.Reason) == "" {
				t.Errorf("%s: suppression without a reason", d.Pos)
			}
		}
	}
	if len(suppressedBy) == 0 {
		t.Error("expected at least one suppressed finding in the module (the obstaint site below)")
	}
	// The dataflow tier is live: obstaint found its known sanctioned site
	// in the real tree (runner.Result.wall_ms). A zero here means the
	// analyzer silently stopped seeing the module.
	if suppressedBy["obstaint"] == 0 {
		t.Error("analyzer obstaint reported no suppressed findings in the module; its known sanctioned site should still be visible")
	}
}

// TestEveryDirectiveSuppresses lints the real repository and fails on
// every //balint:allow outside testdata/ that suppresses no finding on
// its own line or the next: such a directive guards nothing and only
// reads as if it did. Test files count too; the linter never loads them,
// so a directive there can suppress nothing.
func TestEveryDirectiveSuppresses(t *testing.T) {
	const root = "../../.."
	diags, err := balint.LintModule(root)
	if err != nil {
		t.Fatalf("lint module: %v", err)
	}
	type line struct {
		file string
		n    int
	}
	suppressed := map[line]bool{}
	for _, d := range diags {
		if d.Suppressed {
			suppressed[line{filepath.Clean(d.Pos.Filename), d.Pos.Line}] = true
		}
	}
	fset := token.NewFileSet()
	directives := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if !strings.HasPrefix(c.Text, "//balint:allow") {
					continue
				}
				directives++
				pos := fset.Position(c.Pos())
				at := line{filepath.Clean(pos.Filename), pos.Line}
				if !suppressed[at] && !suppressed[line{at.file, at.n + 1}] {
					t.Errorf("%s: %s suppresses no finding on its line or the next", pos, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk module: %v", err)
	}
	if directives == 0 {
		t.Error("found no //balint:allow in the module; the obstaint site should carry one")
	}
}

// TestSuiteNames pins the suite composition: the dataflow analyzers are
// registered and every name is directive-addressable.
func TestSuiteNames(t *testing.T) {
	names := balint.Names()
	want := []string{"maporder", "wallclock", "globalrand", "leantier", "regcheck", "obstaint", "errcmp"}
	if len(names) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("suite[%d] = %s, want %s", i, names[i], n)
		}
	}
}
