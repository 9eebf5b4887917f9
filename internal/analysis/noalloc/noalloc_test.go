package noalloc_test

import (
	"strings"
	"testing"

	"reesift/internal/analysis/analysistest"
	"reesift/internal/analysis/noalloc"
)

func TestNoalloc(t *testing.T) {
	analysistest.Run(t, "testdata", noalloc.Analyzer, "a")
}

// TestAnnotatedNames pins how Annotated spells the fixture's annotated
// functions, the names a package's Covers lists must use: methods on
// pointer and generic receivers drop the star and the type parameters.
func TestAnnotatedNames(t *testing.T) {
	pkg := analysistest.Load(t, "testdata", "a")
	got := strings.Join(noalloc.Annotated(pkg), " ")
	const want = "K.Hot Pair.Key Table.Len boxing closureReturnChecksOwnSignature concat nested returnsBoxed returnsPointer"
	if got != want {
		t.Errorf("Annotated = %s\nwant        %s", got, want)
	}
}
