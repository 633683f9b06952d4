// Package analysistest runs an analyzer over a golden fixture module and
// compares its findings against // want expectations — the same contract
// as golang.org/x/tools/go/analysis/analysistest, rebuilt on the repo's
// stdlib-only framework.
//
// A fixture is a self-contained module under the analyzer's testdata
// directory (its own go.mod, stdlib imports only). Package paths inside
// the fixture are chosen to match the analyzer's scope regexps — e.g. a
// fixture package fix/internal/cachesim is "in scope" for analyzers scoped
// to internal/cachesim.
//
// Expectations are comments on the offending line:
//
//	time.Now() // want `wall clock`
//
// The backquoted string is a regexp matched against the diagnostic
// message; several on one line express several expected findings. A
// diagnostic with no matching expectation, or an expectation with no
// diagnostic, fails the test.
package analysistest

import (
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRe = regexp.MustCompile("`([^`]*)`")

// expectation is one // want entry: a file:line plus a message regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the fixture module at dir, applies the analyzer to every
// package in it, and diffs diagnostics against the // want expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	// analysis.Load reads the fixture through a `go list` subprocess, whose
	// file reads Go's test cache never sees. Walking the fixture opens every
	// directory in this process, so the cache hashes each listing (entry
	// names, sizes and mtimes) and re-runs the test when a fixture changes.
	if err := filepath.WalkDir(dir, func(_ string, _ fs.DirEntry, err error) error { return err }); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages in fixture %s", dir)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ms := wantRe.FindAllStringSubmatch(text, -1)
					if len(ms) == 0 {
						t.Errorf("%s: malformed want comment (no backquoted regexp): %s", pos, c.Text)
						continue
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", pos, m[1], err)
							continue
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	fset := fsetOf(pkgs)
	for _, d := range diags {
		pos := d.Position(fset)
		if !claim(wants, pos, d.Message) {
			t.Errorf("%s: unexpected finding: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmet expectation matching the diagnostic.
func claim(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.met = true
			return true
		}
	}
	return false
}

func fsetOf(pkgs []*analysis.Package) *token.FileSet {
	return pkgs[0].Fset
}
