// Package traceguard enforces the trace-emission guard contract: every
// `.Emit(` call site must be dominated by a successful TraceOn() /
// Enabled() check.
//
// The emitter checks the enabled flag internally, but its argument —
// trace.Record construction, with whatever formatting fills it — is
// evaluated by the caller before the check. An unguarded call therefore
// pays record construction on every event even with tracing off; on the
// kernel hot path that breaks the zero-alloc contract, and in
// long-horizon chaos campaigns it is millions of wasted constructions.
//
// This is the AST-accurate replacement for the retired line-window text
// scan in internal/sim: a guard four lines away, a guard inside a
// comment or string literal, or a multi-line call no longer fool the
// check. Accepted dominators, per call site:
//
//	if x.TraceOn() { x.Emit(...) }            // direct guard (&&-conjoined fine)
//	if !x.TraceOn() { return }; x.Emit(...)   // early-exit guard in an enclosing block
//
// A guard outside an enclosing func literal does not vouch for the
// literal's body (the closure may run on a different path). The
// internal/trace package itself is exempt: it is the emission
// machinery, guarded by its callers.
package traceguard

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"

	"reesift/internal/analysis"
)

// emitterName is the method name whose call sites need a guard.
const emitterName = "Emit"

// Analyzer is the traceguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "traceguard",
	Doc:  "require a TraceOn()/Enabled() guard dominating every .Emit call site",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/trace") {
		return nil, nil
	}
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != emitterName {
				return true
			}
			if analysis.IsPkgNameReceiver(pass.TypesInfo, sel.X) {
				return true // package-level function, not a sink method
			}
			if guarded(stack) {
				return true
			}
			pass.Report(diagnose(pass, stack, call, sel))
			return true
		})
	}
	return nil, nil
}

// guarded reports whether the call at the top of the stack is dominated
// by a positive trace guard. The walk stops at function boundaries: a
// guard enclosing a func literal does not dominate the literal's body.
func guarded(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		parent, child := stack[i], stack[i+1]
		switch p := parent.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if p.Body == child && analysis.HasPositiveTraceGuard(p.Cond) {
				return true
			}
		case *ast.BlockStmt:
			if earlyExitGuard(p.List, child) {
				return true
			}
		case *ast.CaseClause:
			if earlyExitGuard(p.Body, child) {
				return true
			}
		case *ast.CommClause:
			if earlyExitGuard(p.Body, child) {
				return true
			}
		}
	}
	return false
}

// earlyExitGuard reports whether some statement before `upto` in the
// list is `if !guard() { return/continue/break/panic }`.
func earlyExitGuard(list []ast.Stmt, upto ast.Node) bool {
	for _, s := range list {
		if s == upto {
			return false
		}
		ifs, ok := s.(*ast.IfStmt)
		if !ok || ifs.Else != nil {
			continue
		}
		if analysis.IsNegatedTraceGuard(ifs.Cond) && analysis.Terminates(ifs.Body.List) {
			return true
		}
	}
	return false
}

// diagnose builds the diagnostic, attaching a wrap-in-guard suggested
// fix when the call is a standalone expression statement.
func diagnose(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr, sel *ast.SelectorExpr) analysis.Diagnostic {
	recv := render(pass, sel.X)
	guard := guardMethod(pass, sel.X)
	d := analysis.Diagnostic{
		Pos: call.Pos(),
		End: call.End(),
		Message: fmt.Sprintf("unguarded %s call: arguments are evaluated even when tracing is off; dominate it with %s.%s()",
			sel.Sel.Name, recv, guard),
	}
	if len(stack) >= 2 {
		if stmt, ok := stack[len(stack)-2].(*ast.ExprStmt); ok {
			d.SuggestedFixes = []analysis.SuggestedFix{{
				Message: fmt.Sprintf("wrap in if %s.%s() { ... }", recv, guard),
				TextEdits: []analysis.TextEdit{
					{Pos: stmt.Pos(), End: stmt.Pos(), NewText: []byte(fmt.Sprintf("if %s.%s() {\n", recv, guard))},
					{Pos: stmt.End(), End: stmt.End(), NewText: []byte("\n}")},
				},
			}}
		}
	}
	return d
}

// guardMethod picks the guard the receiver actually has, preferring the
// kernel's cached TraceOn over the recorder-level Enabled.
func guardMethod(pass *analysis.Pass, recv ast.Expr) string {
	t := pass.TypeOf(recv)
	if t != nil {
		for _, name := range []string{"TraceOn", "Enabled"} {
			obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, name)
			if _, ok := obj.(*types.Func); ok {
				return name
			}
		}
	}
	return "TraceOn"
}

func render(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "receiver"
	}
	return buf.String()
}
