package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hasSegment reports whether any '/'-separated segment of the import
// path equals one of names. Matching by segment (not suffix) lets the
// same analyzer scope cover both the real module layout
// ("reservoir/internal/core") and the flat fixture paths the tests use
// ("determinism/core").
func hasSegment(path string, names ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves the static callee of a call expression to its
// *types.Func, unwrapping parens and generic instantiation. It returns
// nil for calls through function values, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named builtin
// (recover, panic, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// pkgPathOf returns the import path of the package a function belongs
// to ("" for builtins and error methods).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMethodNamed reports whether fn is a method (has a receiver) with the
// given name.
func isMethodNamed(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// lookupTransportConn finds the transport Conn interface visible from
// pkg: a type named "Conn" whose underlying type is an interface,
// exported by an imported package with a "transport" path segment — or
// by pkg itself when analyzing the transport package. Returns nil if no
// such interface is in scope (the package cannot touch transport tags).
func lookupTransportConn(pkg *types.Package) *types.Interface {
	candidates := append([]*types.Package{pkg}, pkg.Imports()...)
	for _, p := range candidates {
		if !hasSegment(p.Path(), "transport") {
			continue
		}
		obj := p.Scope().Lookup("Conn")
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// implementsConn reports whether t (or *t) satisfies the Conn interface.
func implementsConn(t types.Type, conn *types.Interface) bool {
	if conn == nil || t == nil {
		return false
	}
	if types.Implements(t, conn) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

// receiverType returns the static type of the receiver expression of a
// method call, or nil if call is not a selector-based method call.
func receiverType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil {
		return nil
	}
	return s.Recv()
}

// enclosingFuncs returns, for each function declaration and literal in
// the file, its body; the walk callback receives the innermost function
// body enclosing each node. Implemented as a helper that maps every
// recover/pos lookup need: callers use funcFor.
type funcStack struct {
	nodes []ast.Node // *ast.FuncDecl or *ast.FuncLit
}

// walkFuncs traverses file, invoking visit for every node with the
// innermost enclosing function node (nil at file scope).
func walkFuncs(file *ast.File, visit func(fn ast.Node, n ast.Node)) {
	var stack funcStack
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			switch m.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if m != n {
					stack.nodes = append(stack.nodes, m)
					walk(m)
					stack.nodes = stack.nodes[:len(stack.nodes)-1]
					return false
				}
				return true
			}
			var cur ast.Node
			if len(stack.nodes) > 0 {
				cur = stack.nodes[len(stack.nodes)-1]
			}
			visit(cur, m)
			return true
		})
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			stack.nodes = append(stack.nodes, fd)
			walk(fd)
			stack.nodes = stack.nodes[:len(stack.nodes)-1]
		} else {
			walk(decl)
		}
	}
}

// exprMentionsConst reports whether expr references at least one
// declared named constant from a package for which allowed returns
// true. Used by tagdiscipline: a constant-valued tag argument is legal
// only when it spells a reserved control-tag constant, not a bare
// literal.
func exprMentionsConst(info *types.Info, expr ast.Expr, allowed func(pkg *types.Package) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := info.Uses[id].(*types.Const); ok && allowed(c.Pkg()) {
			found = true
		}
		return true
	})
	return found
}
