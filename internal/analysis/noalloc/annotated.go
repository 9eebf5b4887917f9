package noalloc

import (
	"go/ast"
	"sort"

	"reesift/internal/analysis"
)

// Annotated lists the functions of pkg that carry the directive, sorted,
// as "Name" for a function and "Recv.Name" for a method (a pointer
// receiver without its star, a generic receiver without its type
// parameters). The runtime half of the contract (noalloctest.Verify)
// holds this list against a package's table of measured checks.
func Annotated(pkg *analysis.Package) []string {
	var names []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasDirective(fd, Directive) {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch generic := recv.(type) {
				case *ast.IndexExpr:
					recv = generic.X
				case *ast.IndexListExpr:
					recv = generic.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
