package lintkit

// The aliasing analyzer mechanizes the DESIGN "Zero-copy ownership"
// section: values produced by annotated zero-copy producers (record
// bodies aliasing the archive backing array, arena-backed rows,
// interned path sequences, cache-shared attributes) are *borrowed* —
// valid only inside a declared ownership window — and the analyzer
// flags every way a borrowed value can outlive that window: a store
// into heap-reachable storage (struct field behind a pointer, package
// variable, map, slice element), a channel send, a goroutine capture or
// argument, or a return from a function that is not itself a producer.
//
// The annotation grammar (normative in DESIGN.md):
//
//	//atomlint:borrowed [note]   on a producer func or interface method
//	//atomlint:owned <reason>    line directive: explicit ownership
//	                             transfer / copy point
//	//atomlint:scratch <reason>  line directive: a heap slot declared as
//	                             per-window scratch a producer may write
//
// owned and scratch require a reason; a bare directive is a finding.

import (
	"go/ast"
	"go/types"
	"strings"
)

// aliasingPkgs scopes the sweep to the zero-copy pipeline (and the
// fixture package aliasfix). Packages outside the list may still
// *define* producers via requiredBorrowed, but their function bodies
// are not swept.
var aliasingPkgs = []string{"mrt", "bgp", "bgpstream", "sanitize", "core", "replay", "aspath", "atomd", "aliasfix"}

// requiredBorrowed pins, per package (matched by import-path suffix
// under "internal"), the zero-copy producers whose borrowed contract is
// load-bearing. Each must carry //atomlint:borrowed: a present but
// unannotated producer is a finding, and a listed name with no matching
// declaration is also a finding — a rename cannot silently drop a
// producer out of enforcement. The table doubles as the cross-package
// producer registry: a call from any swept package resolves against it,
// so consumers see the contract without reading the producer's source.
// Names use the display form "(*T).Name" / "T.Name" / "Name"; interface
// methods use "Iface.Name".
var requiredBorrowed = []struct {
	pkg string
	fns []string
}{
	{"mrt", []string{"(*BytesReader).Next", "(*Reader).Next", "ParseMessageInto", "ReadAll"}},
	{"bgp", []string{"(*Update).Attr", "(*Update).ASPathAttr"}},
	{"bgpstream", []string{"recordReader.Next", "(*Stream).NextBatch"}},
	{"aspath", []string{"(*Table).Seq"}},
	{"core", []string{"(*Snapshot).Row", "(*Snapshot).Route"}},
	{"atomd", []string{"(*FrameParser).Next"}},
}

func requiredBorrowedHas(pkgPath, display string) bool {
	for _, req := range requiredBorrowed {
		if !hasSuffixPath(pkgPath, []string{req.pkg}, "internal") {
			continue
		}
		for _, fn := range req.fns {
			if fn == display {
				return true
			}
		}
	}
	return false
}

var Aliasing = &Analyzer{
	Name: "aliasing",
	Doc:  "track values from //atomlint:borrowed zero-copy producers and flag escapes from the ownership window",
	Run:  runAliasing,
}

func runAliasing(pass *Pass) {
	if !hasSuffixPath(pass.Pkg.Path, aliasingPkgs, "internal") {
		return
	}
	dirs := collectLineDirectives(pass.Pkg, pass.Reportf)
	prods := collectProducers(pass)
	checkRequiredBorrowed(pass, prods)

	modRoot := moduleRoot(pass.Pkg.Path)
	view := func(t types.Type) bool { return viewLikeType(t, modRoot, nil) }
	isSource := func(call *ast.CallExpr) bool {
		fn := calleeFunc(pass.Pkg.Info, call)
		if fn == nil {
			return false
		}
		if prods.annotated[fn] {
			return true
		}
		return fn.Pkg() != nil && requiredBorrowedHas(fn.Pkg().Path(), typeFuncDisplay(fn))
	}

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAliasingFunc(pass, fd, prods, dirs, view, isSource)
		}
	}
}

// producerInfo is the package's producer surface: every func decl and
// interface method by display name, and which carry //atomlint:borrowed.
type producerInfo struct {
	decls     map[string]ast.Node  // display name -> declaring node
	names     map[string]bool      // display name -> annotated
	annotated map[*types.Func]bool // resolved annotated producers
}

// collectProducers enumerates the package's functions and interface
// methods, records the //atomlint:borrowed set, and validates each
// annotation: a producer whose signature cannot hand out a view (no
// view-like result, no pointer parameter to a view-like type) is a
// misannotation and is reported.
func collectProducers(pass *Pass) *producerInfo {
	prods := &producerInfo{
		decls:     map[string]ast.Node{},
		names:     map[string]bool{},
		annotated: map[*types.Func]bool{},
	}
	modRoot := moduleRoot(pass.Pkg.Path)
	record := func(name string, node ast.Node, doc *ast.CommentGroup, obj types.Object) {
		prods.decls[name] = node
		if !annotationHas(doc, "borrowed") {
			return
		}
		prods.names[name] = true
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		prods.annotated[fn] = true
		if sig, ok := fn.Type().(*types.Signature); ok && !signatureCanBorrow(sig, modRoot) {
			pass.Reportf(node.Pos(), "//atomlint:borrowed on %s, but no result or pointer parameter can carry a view: nothing to borrow", name)
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				record(funcDisplayName(d), d, d.Doc, pass.Pkg.Info.Defs[d.Name])
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						if len(m.Names) != 1 {
							continue
						}
						doc := m.Doc
						if doc == nil {
							doc = m.Comment
						}
						record(ts.Name.Name+"."+m.Names[0].Name, m, doc, pass.Pkg.Info.Defs[m.Names[0]])
					}
				}
			}
		}
	}
	return prods
}

// checkRequiredBorrowed enforces the requiredBorrowed table for the
// package under analysis, mirroring the hotpath kernel table.
func checkRequiredBorrowed(pass *Pass, prods *producerInfo) {
	for _, req := range requiredBorrowed {
		if !hasSuffixPath(pass.Pkg.Path, []string{req.pkg}, "internal") {
			continue
		}
		for _, fn := range req.fns {
			if prods.names[fn] {
				continue
			}
			if node, ok := prods.decls[fn]; ok {
				pass.Reportf(node.Pos(), "%s is a registered zero-copy producer: it must carry //atomlint:borrowed so consumers see the aliasing contract", fn)
			} else if len(pass.Pkg.Files) > 0 {
				pass.Reportf(pass.Pkg.Files[0].Name.Pos(), "required zero-copy producer %s not found in package: update requiredBorrowed if it was renamed", fn)
			}
		}
	}
}

// signatureCanBorrow reports whether a signature has any channel
// through which a view can leave: a view-like result, or a pointer (or
// slice-of-struct) parameter the producer can write views into.
func signatureCanBorrow(sig *types.Signature, modRoot string) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if viewLikeType(res.At(i).Type(), modRoot, nil) {
			return true
		}
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if p, ok := types.Unalias(params.At(i).Type()).(*types.Pointer); ok {
			if viewLikeType(p.Elem(), modRoot, nil) {
				return true
			}
		}
	}
	return false
}

// checkAliasingFunc runs the flow engine over one function and reports
// every escape of a borrowed value from the ownership window.
func checkAliasingFunc(pass *Pass, fd *ast.FuncDecl, prods *producerInfo,
	dirs []lineDirective, view func(types.Type) bool, isSource func(*ast.CallExpr) bool) {

	info := pass.Pkg.Info
	fl := newFlowFunc(pass.Pkg, isSource, view)
	fl.run(fd.Body)

	// A producer's own return of a borrowed value is the contract, not
	// an escape.
	display := funcDisplayName(fd)
	selfProducer := prods.names[display] || requiredBorrowedHas(pass.Pkg.Path, display)

	allowed := func(kind string, n ast.Node) bool {
		return declaredAt(dirs, kind, pass.Pkg.Fset.Position(n.Pos()))
	}

	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAliasingAssign(pass, fl, st, allowed)
		case *ast.SendStmt:
			if fl.exprTainted(st.Value) && !allowed("owned", st) {
				pass.Reportf(st.Pos(), "borrowed value sent on a channel: the receiver outlives the ownership window; copy first or declare //atomlint:owned")
			}
		case *ast.ReturnStmt:
			if selfProducer || insideFuncLit(parents) {
				return true
			}
			for _, r := range st.Results {
				if fl.exprTainted(r) && !allowed("owned", st) {
					pass.Reportf(st.Pos(), "borrowed value returned from %s, which is not an annotated producer: annotate //atomlint:borrowed or copy before returning", display)
					break
				}
			}
		case *ast.GoStmt:
			checkAliasingGo(pass, fl, st, allowed)
		case *ast.CallExpr:
			checkProducerOutParam(pass, fl, info, st, isSource, allowed)
		}
		return true
	})
}

func checkAliasingAssign(pass *Pass, fl *flowFunc, st *ast.AssignStmt, allowed func(string, ast.Node) bool) {
	info := fl.pkg.Info
	// Tuple producer form: x, err := producer() escapes only through
	// non-identifier targets; identifier bindings are taint transfers.
	taintedAt := func(i int) bool {
		if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
			call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok || !fl.isSource(call) {
				return false
			}
			tup, ok := info.TypeOf(call).(*types.Tuple)
			return ok && i < tup.Len() && fl.viewType(tup.At(i).Type())
		}
		return i < len(st.Rhs) && fl.exprTainted(st.Rhs[i])
	}
	for i, lhs := range st.Lhs {
		if !taintedAt(i) {
			continue
		}
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if localVarObj(info, l) != nil || l.Name == "_" {
				continue // local binding: taint transfer, not escape
			}
			if !allowed("owned", lhs) {
				pass.Reportf(lhs.Pos(), "borrowed value stored in package variable %s: it outlives every ownership window; copy or declare //atomlint:owned", l.Name)
			}
		case *ast.SelectorExpr:
			if !heapBase(info, l.X) {
				continue // field of a local value struct: propagation
			}
			if !allowed("owned", lhs) {
				pass.Reportf(lhs.Pos(), "borrowed value stored in heap-reachable field %s: the field outlives the ownership window; copy or declare //atomlint:owned", exprText(fl.pkg.Fset, l))
			}
		case *ast.IndexExpr:
			t := info.TypeOf(l.X)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Map:
				if !allowed("owned", lhs) {
					pass.Reportf(lhs.Pos(), "borrowed value stored in map %s: map entries outlive the ownership window; copy or declare //atomlint:owned", exprText(fl.pkg.Fset, l.X))
				}
			case *types.Slice:
				if !allowed("owned", lhs) {
					pass.Reportf(lhs.Pos(), "borrowed value stored in slice element %s: the backing array outlives the ownership window; copy or declare //atomlint:owned", exprText(fl.pkg.Fset, l))
				}
			default:
				if heapBase(info, l.X) && !allowed("owned", lhs) {
					pass.Reportf(lhs.Pos(), "borrowed value stored through %s into heap-reachable storage; copy or declare //atomlint:owned", exprText(fl.pkg.Fset, l.X))
				}
			}
		case *ast.StarExpr:
			if !allowed("owned", lhs) {
				pass.Reportf(lhs.Pos(), "borrowed value stored through pointer %s: the pointee outlives the ownership window; copy or declare //atomlint:owned", exprText(fl.pkg.Fset, l.X))
			}
		}
	}
}

func checkAliasingGo(pass *Pass, fl *flowFunc, st *ast.GoStmt, allowed func(string, ast.Node) bool) {
	for _, a := range st.Call.Args {
		if fl.exprTainted(a) && !allowed("owned", a) {
			pass.Reportf(a.Pos(), "borrowed value passed to a goroutine: the goroutine can outlive the ownership window; copy or declare //atomlint:owned")
		}
	}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		if id, captured := fl.capturedTainted(lit); captured && !allowed("owned", st) {
			pass.Reportf(st.Pos(), "goroutine closure captures borrowed value %s: the goroutine can outlive the ownership window; copy or declare //atomlint:owned", id.Name)
		}
	}
}

// checkProducerOutParam flags a producer call handed a pointer into
// heap-reachable storage (p.Field, a package var): the producer will
// write views there, extending the borrow beyond any local window. A
// deliberate per-window scratch slot is declared with //atomlint:scratch.
func checkProducerOutParam(pass *Pass, fl *flowFunc, info *types.Info, call *ast.CallExpr, isSource func(*ast.CallExpr) bool, allowed func(string, ast.Node) bool) {
	if !isSource(call) {
		return
	}
	for _, a := range call.Args {
		u, ok := unparen(a).(*ast.UnaryExpr)
		if !ok || u.Op.String() != "&" {
			continue
		}
		if heapBase(info, u.X) && !allowed("scratch", a) {
			pass.Reportf(a.Pos(), "zero-copy producer writes views through %s into heap-reachable storage: declare the slot //atomlint:scratch or use a local", exprText(fl.pkg.Fset, a))
		}
	}
}

// --- shared type/annotation helpers ---

// moduleRoot returns the first segment of an import path — the module
// root under which named types are considered transparent to the
// view-likeness scan.
func moduleRoot(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// viewLikeType reports whether a value of type t can carry a borrowed
// reference: a slice, an interface (which can box one), or a
// module-internal named type / struct / array that contains one.
// Foreign named types (stdlib, other modules) are opaque — netip.Addr's
// internal pointer does not make a Prefix a view — and pointers are
// not views themselves (a *T into an arena is tracked at the producer
// boundary, not by type shape).
func viewLikeType(t types.Type, modRoot string, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj == nil || obj.Pkg() == nil {
			return false // universe types (error, ...) are opaque
		}
		if p := obj.Pkg().Path(); p != modRoot && !strings.HasPrefix(p, modRoot+"/") {
			return false
		}
		if seen == nil {
			seen = map[types.Type]bool{}
		}
		seen[t] = true
		return viewLikeType(u.Underlying(), modRoot, seen)
	case *types.Slice:
		return true
	case *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if viewLikeType(u.Field(i).Type(), modRoot, seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return viewLikeType(u.Elem(), modRoot, seen)
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

// typeFuncDisplay renders a *types.Func the way requiredBorrowed spells
// it: "Name", "T.Name", "(*T).Name", or "Iface.Name".
func typeFuncDisplay(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := types.Unalias(sig.Recv().Type())
	if p, ok := rt.(*types.Pointer); ok {
		if n, ok := types.Unalias(p.Elem()).(*types.Named); ok {
			return "(*" + n.Obj().Name() + ")." + fn.Name()
		}
		return fn.Name()
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// annotationHas reports whether the comment group carries the given
// //atomlint: directive, with or without a trailing note.
func annotationHas(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//atomlint:"+directive)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// insideFuncLit reports whether the ancestor stack crosses a func
// literal — a return inside a closure returns to the closure's caller,
// still inside the enclosing window, so it is not judged here.
func insideFuncLit(parents []ast.Node) bool {
	for _, p := range parents {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}
