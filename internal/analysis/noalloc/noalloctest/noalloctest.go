// Package noalloctest is the runtime half of the //reesift:noalloc
// contract. The analyzer rejects constructs that allocate on every call
// but cannot see amortised ones — append growth on a buffer that is
// thrown away each call made an annotated Encoder.PutU64 the largest
// allocation site in the repository. So every annotated function must
// also be exercised by a measured check: a package lists scenarios that
// testing.AllocsPerRun must report at zero, each naming the annotated
// functions it runs, and Verify fails on an annotation no scenario names.
package noalloctest

import (
	"testing"

	"reesift/internal/analysis"
	"reesift/internal/analysis/noalloc"
)

// Check is one measured scenario.
type Check struct {
	Name string
	// Covers names the annotated functions Run executes, as
	// noalloc.Annotated spells them.
	Covers []string
	// Run is one steady-state iteration. AllocsPerRun calls it once to
	// warm up before measuring.
	Run func()
}

// Verify measures every check, then loads the package in the current
// directory (a test's working directory is its package) and fails unless
// the checks cover exactly its annotated functions.
func Verify(t *testing.T, checks []Check) {
	t.Helper()
	covered := make(map[string]string)
	for _, c := range checks {
		if avg := testing.AllocsPerRun(100, c.Run); avg != 0 {
			t.Errorf("check %q: %v allocs/run, want 0 (covers %v)", c.Name, avg, c.Covers)
		}
		for _, fn := range c.Covers {
			covered[fn] = c.Name
		}
	}
	if testing.Short() {
		t.Skip("loading the package's annotations is not short")
	}
	pkgs, err := analysis.Load(".", ".")
	if err != nil {
		t.Fatalf("loading package: %v", err)
	}
	for _, pkg := range pkgs {
		for _, fn := range noalloc.Annotated(pkg) {
			if _, ok := covered[fn]; !ok {
				t.Errorf("//%s function %s is named by no AllocsPerRun check", noalloc.Directive, fn)
			}
			delete(covered, fn)
		}
	}
	for fn, check := range covered {
		t.Errorf("check %q covers %s, which is not a //%s function of this package", check, fn, noalloc.Directive)
	}
}
