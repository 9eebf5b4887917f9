// Package noalloc statically enforces the zero-allocation contract on
// functions annotated //reesift:noalloc — the hot paths that each
// package's TestNoallocRuntime pins at 0 allocations per run. The
// runtime test tells you *that* the contract broke; this analyzer
// points at the call site that broke it.
//
// Inside an annotated function the analyzer rejects the construct
// classes that heap-allocate on every execution:
//
//   - closure literals (escaping closures allocate their capture),
//   - calls into the fmt package (formatting allocates),
//   - string concatenation and string([]byte)/string([]rune)
//     conversions,
//   - interface boxing: passing, assigning, or returning a non-pointer
//     concrete value where an interface is expected.
//
// Amortized-zero constructs (append growth, map/slice make in cold
// branches) are deliberately not flagged: the runtime tests own
// steady-state amortization, the analyzer owns per-call allocations.
//
// Blocks dominated by a trace guard (if x.TraceOn() { ... }) are
// exempt: traced-only code runs with tracing on, which the runtime
// tests run with tracing off — the same boundary traceguard enforces
// from the other side.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"reesift/internal/analysis"
)

// Directive marks a function as bound by the zero-alloc contract.
const Directive = "reesift:noalloc"

// Analyzer is the noalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "reject per-call heap allocations (closures, fmt, string building, interface boxing) in //reesift:noalloc functions",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasDirective(fd, Directive) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// sigs tracks the innermost function signature so return statements
	// check against the right result types inside nested literals.
	var sigs []*types.Signature
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		sigs = append(sigs, obj.Type().(*types.Signature))
	}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				sigs = sigs[:len(sigs)-1]
			}
			return true
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if analysis.HasPositiveTraceGuard(n.Cond) {
				// Traced-only block: off the zero-alloc contract.
				return false
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in //%s function: escaping closures allocate their capture", Directive)
			if sig, ok := pass.TypeOf(n).(*types.Signature); ok {
				sigs = append(sigs, sig)
			} else {
				sigs = append(sigs, types.NewSignatureType(nil, nil, nil, nil, nil, false))
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.BinaryExpr:
			checkConcat(pass, n)
		case *ast.AssignStmt:
			checkAssign(pass, n)
		case *ast.ValueSpec:
			checkValueSpec(pass, n)
		case *ast.ReturnStmt:
			checkReturn(pass, n, sigs)
		}
		stack = append(stack, n)
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions: string(bs) of a byte/rune slice copies into a fresh
	// string. Other conversions are free or value-preserving.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 && len(call.Args) == 1 {
			if argT := pass.TypeOf(call.Args[0]); argT != nil {
				if _, isSlice := argT.Underlying().(*types.Slice); isSlice {
					pass.Reportf(call.Pos(), "string conversion of a slice allocates in //%s function", Directive)
				}
			}
		}
		return
	}
	if pkgPath, name, ok := analysis.CalleePkgFunc(pass.TypesInfo, call); ok && pkgPath == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates in //%s function", name, Directive)
		return
	}
	// Interface boxing at call boundaries.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // builtin or untypeable
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			paramT = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT != nil && types.IsInterface(paramT) && boxes(pass.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "interface boxing: %s argument escapes to interface in //%s function", types.TypeString(pass.TypeOf(arg), nil), Directive)
		}
	}
}

func checkConcat(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.ADD {
		return
	}
	if tv, ok := pass.TypesInfo.Types[bin]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	t := pass.TypeOf(bin.X)
	if t == nil {
		return
	}
	if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		pass.Reportf(bin.Pos(), "string concatenation allocates in //%s function", Directive)
	}
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lhsT := pass.TypeOf(lhs)
		if lhsT != nil && types.IsInterface(lhsT) && boxes(pass.TypeOf(as.Rhs[i])) {
			pass.Reportf(as.Rhs[i].Pos(), "interface boxing: assignment of %s to interface in //%s function", types.TypeString(pass.TypeOf(as.Rhs[i]), nil), Directive)
		}
	}
}

func checkValueSpec(pass *analysis.Pass, vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		lhsT := pass.TypeOf(name)
		if lhsT != nil && types.IsInterface(lhsT) && boxes(pass.TypeOf(vs.Values[i])) {
			pass.Reportf(vs.Values[i].Pos(), "interface boxing: declaration of %s as interface in //%s function", types.TypeString(pass.TypeOf(vs.Values[i]), nil), Directive)
		}
	}
}

func checkReturn(pass *analysis.Pass, ret *ast.ReturnStmt, sigs []*types.Signature) {
	if len(sigs) == 0 {
		return
	}
	results := sigs[len(sigs)-1].Results()
	if results.Len() != len(ret.Results) {
		return // bare return or single-call multi-return
	}
	for i, r := range ret.Results {
		if types.IsInterface(results.At(i).Type()) && boxes(pass.TypeOf(r)) {
			pass.Reportf(r.Pos(), "interface boxing: returning %s as interface in //%s function", types.TypeString(pass.TypeOf(r), nil), Directive)
		}
	}
}

// boxes reports whether storing a value of type t into an interface
// heap-allocates: true for any concrete type that does not fit the
// interface data word (pointers, channels, maps, and funcs fit; nil is
// nil).
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}
