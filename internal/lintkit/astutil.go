package lintkit

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// exprText renders an expression to its source form — the cheap
// structural-equality key the guard matchers use ("len(b)" guards uses
// of "b", wherever both appear).
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// walkParents traverses the AST depth-first, passing each node's
// ancestor stack (outermost first) to fn. Returning false prunes the
// subtree.
func walkParents(root ast.Node, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// calleeName returns the bare name of a call target: "Sort" for
// sort.Slice or s.Sort, "len" for len. Empty for indirect calls.
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.ParenExpr:
		return calleeName(f.X)
	case *ast.IndexExpr: // generic instantiation
		return calleeName(f.X)
	}
	return ""
}

// pkgFunc reports whether the call is pkgname.Funcname on an imported
// package (not a method on a variable that shadows the name).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkg
}

// pkgOf returns the imported-package path of a selector call's
// qualifier, or "" when the callee is not a package-qualified function.
func pkgOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// hasSuffixPath reports whether the import path ends with one of the
// given "internal/<name>" suffixes.
func hasSuffixPath(path string, names []string, under string) bool {
	for _, n := range names {
		if strings.HasSuffix(path, under+"/"+n) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's target to its *types.Func (plain
// function, method, or interface method), or nil for indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		if inner, ok := f.X.(*ast.Ident); ok {
			fn, _ := info.Uses[inner].(*types.Func)
			return fn
		}
	}
	return nil
}

// declaredWithin reports whether obj's declaration lies inside the
// given node's source range — i.e. it is the closure's own local, not a
// capture.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// localVarObj resolves e to a function-local (non-package-level)
// variable's object, or nil.
func localVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	vr, ok := info.ObjectOf(id).(*types.Var)
	if !ok || vr.Parent() == nil || vr.Parent().Parent() == types.Universe {
		return nil
	}
	return vr
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
