// Package analysistest runs an analyzer over fixture packages under a
// testdata/src directory and checks its diagnostics against // want
// comments — the same convention as golang.org/x/tools'
// analysistest, reimplemented on the standard library so the module
// needs no toolchain dependencies.
//
// A fixture line expects diagnostics with a trailing comment:
//
//	rand.Intn(6) // want `global math/rand`
//
// Each backquoted or double-quoted string after `want` is a regexp that
// must match the message of a distinct diagnostic reported on that
// line; diagnostics with no matching expectation, and expectations with
// no matching diagnostic, fail the test.
//
// Fixture packages may import only the standard library (and sibling
// fixture packages are not supported): dependencies resolve through
// `go list -export` compiler export data, same as the real loader.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"reesift/internal/analysis"
)

// Run loads each fixture package (a directory under testdata/src named
// by its import path) and applies the analyzer, comparing diagnostics
// against // want expectations. //reesift:allow suppression applies,
// so fixtures can also pin the allowlist mechanism.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		pkg := Load(t, testdata, pkgPath)
		findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		checkWants(t, pkg, findings)
	}
}

// RunWithFixes is Run plus suggested-fix verification: after the want
// check, every fix's edits are applied, the result is gofmt-formatted,
// and each changed file is compared byte-for-byte against
// <file>.golden.
func RunWithFixes(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkgPath := range pkgPaths {
		pkg := Load(t, testdata, pkgPath)
		findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		checkWants(t, pkg, findings)
		applyAndCompare(t, pkg, findings)
	}
}

// Load parses and type-checks one fixture package, failing the test if it
// cannot.
func Load(t *testing.T, testdata, pkgPath string) *analysis.Package {
	t.Helper()
	pkg, err := loadFixture(testdata, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	return pkg
}

// loadFixture parses and type-checks one fixture package.
func loadFixture(testdata, pkgPath string) (*analysis.Package, error) {
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var imports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports = append(imports, strings.Trim(imp.Path.Value, `"`))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	exports, err := stdExports(imports)
	if err != nil {
		return nil, err
	}
	imp := analysis.ExportDataImporter(fset, exports)
	return analysis.CheckFiles(fset, imp, pkgPath, dir, files)
}

// checkWants matches findings against // want expectations.
func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	type expectation struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				patterns, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", pkg.Fset.Position(c.Pos()), err)
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, p, err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	for _, f := range findings {
		posn := f.Position()
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWant extracts the quoted regexps from a want expectation. The
// marker `want` may start the comment or appear mid-comment (so a
// //reesift:allow directive can carry expectations about itself); every
// pattern after it must be "- or `-quoted.
func parseWant(comment string) ([]string, error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	var rest string
	if strings.HasPrefix(text, "want ") {
		rest = strings.TrimSpace(strings.TrimPrefix(text, "want "))
	} else if i := strings.Index(text, " want "); i >= 0 {
		rest = strings.TrimSpace(text[i+len(" want "):])
	} else {
		return nil, nil
	}
	var out []string
	for rest != "" {
		quote := rest[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want: patterns must be quoted with \" or `: %q", rest)
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("want: unterminated pattern: %q", rest)
		}
		out = append(out, rest[1:1+end])
		rest = strings.TrimSpace(rest[1+end+1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want: no patterns")
	}
	return out, nil
}

// applyAndCompare applies every suggested fix and compares the
// formatted result against <file>.golden.
func applyAndCompare(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	type edit struct {
		start, end int
		text       []byte
	}
	edits := make(map[string][]edit) // filename -> edits
	for _, f := range findings {
		for _, fix := range f.SuggestedFixes {
			for _, te := range fix.TextEdits {
				posn := pkg.Fset.Position(te.Pos)
				endPosn := pkg.Fset.Position(te.End)
				if endPosn.Filename != posn.Filename {
					t.Fatalf("fix edit spans files: %s vs %s", posn, endPosn)
				}
				edits[posn.Filename] = append(edits[posn.Filename], edit{posn.Offset, endPosn.Offset, te.NewText})
			}
		}
	}
	for filename, es := range edits {
		src, err := os.ReadFile(filename)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(es, func(i, j int) bool { return es[i].start > es[j].start })
		for _, e := range es {
			src = append(src[:e.start], append(append([]byte(nil), e.text...), src[e.end:]...)...)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("fixed %s does not parse: %v\n%s", filename, err, src)
		}
		golden, err := os.ReadFile(filename + ".golden")
		if err != nil {
			t.Fatalf("missing golden for fixed output: %v", err)
		}
		if string(formatted) != string(golden) {
			t.Errorf("fixed %s differs from %s.golden:\n-- got --\n%s\n-- want --\n%s",
				filepath.Base(filename), filepath.Base(filename), formatted, golden)
		}
	}
}
