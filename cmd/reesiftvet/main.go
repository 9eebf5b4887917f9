// Command reesiftvet runs the project's static analyzers: the
// determinism, seed-discipline, trace-guard, and zero-alloc contracts
// that the simulator's reproducibility claims rest on.
//
//	reesiftvet [-json] [packages]    defaults to ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"reesift/internal/analysis"
	"reesift/internal/analysis/detrand"
	"reesift/internal/analysis/noalloc"
	"reesift/internal/analysis/seedlint"
	"reesift/internal/analysis/traceguard"
)

var analyzers = []*analysis.Analyzer{
	traceguard.Analyzer,
	detrand.Analyzer,
	seedlint.Analyzer,
	noalloc.Analyzer,
}

var jsonFlag = flag.Bool("json", false, "emit JSON output")

// main loads the matched packages through the module-aware loader and
// prints every surviving finding. Exit status 1 means findings, 2 means
// the run itself failed.
func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reesiftvet [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fatalf("%v", err)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fatalf("%v", err)
	}
	if *jsonFlag {
		printJSON(findings)
		return
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// printJSON emits diagnostics in go vet's -json framing:
// {pkgID: {analyzer: [{posn, message}]}} on stdout, exit 0.
func printJSON(findings []analysis.Finding) {
	type jsonDiagnostic struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	tree := make(map[string]map[string][]jsonDiagnostic)
	for _, f := range findings {
		byAnalyzer := tree[f.Pkg.ImportPath]
		if byAnalyzer == nil {
			byAnalyzer = make(map[string][]jsonDiagnostic)
			tree[f.Pkg.ImportPath] = byAnalyzer
		}
		byAnalyzer[f.Analyzer.Name] = append(byAnalyzer[f.Analyzer.Name], jsonDiagnostic{
			Posn:    f.Position().String(),
			Message: f.Message,
		})
	}
	out, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		fatalf("%v", err)
	}
	os.Stdout.Write(out)
	fmt.Println()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reesiftvet: "+format+"\n", args...)
	os.Exit(2)
}
