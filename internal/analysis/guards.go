package analysis

import (
	"go/ast"
	"go/token"
)

// TraceGuardNames are the niladic methods whose truth gates trace
// emission: the kernel's cached TraceOn, and the trace.Recorder Enabled
// method for call sites holding a recorder directly. Both traceguard
// (which requires emission sites to sit under one of these) and noalloc
// (which exempts guarded blocks — code that runs only on traced runs is
// off the zero-alloc contract by definition) share this vocabulary.
var TraceGuardNames = map[string]bool{
	"TraceOn": true,
	"Enabled": true,
}

// HasPositiveTraceGuard reports whether cond guarantees, when true,
// that a trace guard returned true: a direct guard call, a guard call
// conjoined with && (at any depth), or parentheses around either. A
// guard under ! or on either side of || guarantees nothing and does not
// count.
func HasPositiveTraceGuard(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return HasPositiveTraceGuard(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return HasPositiveTraceGuard(e.X) || HasPositiveTraceGuard(e.Y)
		}
		return false
	case *ast.CallExpr:
		return IsTraceGuardCall(e)
	}
	return false
}

// IsNegatedTraceGuard reports whether cond is the negation of a guard
// call (!x.TraceOn(), possibly parenthesized) — the early-return idiom's
// condition.
func IsNegatedTraceGuard(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return IsNegatedTraceGuard(e.X)
	case *ast.UnaryExpr:
		if e.Op != token.NOT {
			return false
		}
		inner := e.X
		for {
			if p, ok := inner.(*ast.ParenExpr); ok {
				inner = p.X
				continue
			}
			break
		}
		call, ok := inner.(*ast.CallExpr)
		return ok && IsTraceGuardCall(call)
	}
	return false
}

// IsTraceGuardCall reports whether call invokes a niladic function or
// method named after one of the trace guards.
func IsTraceGuardCall(call *ast.CallExpr) bool {
	if len(call.Args) != 0 {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return TraceGuardNames[fun.Sel.Name]
	case *ast.Ident:
		return TraceGuardNames[fun.Name]
	}
	return false
}

// Terminates reports whether the statement list unconditionally leaves
// the enclosing block: its last statement is a return, a branch
// (break/continue/goto), or a panic call. Used to recognize
// `if !guard() { return }` early-exit guards.
func Terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
