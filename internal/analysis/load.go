package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked target package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// A ListedPackage is the subset of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
}

// ListExports runs `go list -export -deps -json` on patterns in dir (the
// current directory when dir is empty). It returns the compiler export
// data file of every listed package that has one, keyed by import path,
// and the packages the patterns matched outside the standard library.
func ListExports(dir string, patterns ...string) (map[string]string, []*ListedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -export %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var targets []*ListedPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, &p)
		}
	}
	return exports, targets, nil
}

// Load enumerates the packages matched by patterns (relative to dir, a
// directory inside the module) and type-checks each from source. All
// dependencies — standard library and module-internal alike — resolve
// through compiler export data produced by `go list -export`, so
// loading needs no network, no GOPATH layout, and no toolchain packages
// beyond the standard library. Test files are not loaded: the contracts
// the analyzers enforce bind the shipped code, and test-only wall-clock
// or map-order noise would drown real violations.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, targets, err := ListExports(dir, patterns...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := ExportDataImporter(fset, exports)

	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ExportDataImporter returns a types.Importer that resolves import
// paths through the given map of import path -> compiler export data
// file (as produced by `go list -export`).
func ExportDataImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return CheckFiles(fset, imp, importPath, dir, files)
}

// CheckFiles type-checks already-parsed files as one package. The
// analysistest harness uses it for fixture packages.
func CheckFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
