package lintkit

import (
	"go/ast"
	"go/types"
)

// Hotpath enforces the AllocsPerRun guarantees from the benchmark suite
// at review time: inside functions annotated
//
//	//atomlint:hotpath
//
// it flags heap-allocating constructs — &T{...} literals, slice and map
// composite literals, make/new, fmt calls (fmt.Errorf excepted: error
// construction is assumed to be the cold path), allocating
// string↔[]byte conversions, and func literals that escape (any closure
// not called on the spot). The non-escaping m[string(b)] map-lookup form
// is recognized and allowed.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocating constructs in //atomlint:hotpath functions; require the annotation on the pinned decode kernels",
	Run:  runHotpath,
}

// requiredHotpaths lists, per package (matched by import-path suffix
// under "internal", like the other scoped sweeps), the functions whose
// allocation-freedom is pinned by AllocsPerRun tests and benches. Each
// must carry //atomlint:hotpath so the sweep above covers it: a present
// but unannotated function is a finding, and a listed name with no
// matching declaration is also a finding — a rename cannot silently
// drop a kernel out of enforcement. Names use the display form
// "(*T).Name" / "T.Name" / "Name".
var requiredHotpaths = []struct {
	pkg string
	fns []string
}{
	{"mrt", []string{"(*BytesReader).Next", "(*RIB).AppendTo"}},
	{"bgpstream", []string{"(*Stream).fill", "(*Stream).NextBatch"}},
	{"aspath", []string{"(*Table).Intern", "(*Table).Lookup"}},
	{"core", []string{"(*AtomIndex).ApplyUpdate", "(*AtomIndex).rowHash", "(*AtomIndex).rebucket"}},
	{"atomd", []string{"(*view).sameAtom", "(*view).memberCount", "(*view).prefixAtom"}},
}

func runHotpath(pass *Pass) {
	decls := make(map[string]*ast.FuncDecl)
	annotated := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := funcDisplayName(fd)
			decls[name] = fd
			if !funcHasAnnotation(fd, "hotpath") {
				continue
			}
			annotated[name] = true
			checkHotpathFunc(pass, fd)
		}
	}
	checkRequiredHotpaths(pass, decls, annotated)
}

// checkRequiredHotpaths enforces the requiredHotpaths table for the
// package under analysis. Missing functions are reported at the first
// file's package clause — the finding is about the package's surface,
// not any one declaration.
func checkRequiredHotpaths(pass *Pass, decls map[string]*ast.FuncDecl, annotated map[string]bool) {
	for _, req := range requiredHotpaths {
		if !hasSuffixPath(pass.Pkg.Path, []string{req.pkg}, "internal") {
			continue
		}
		for _, fn := range req.fns {
			if annotated[fn] {
				continue
			}
			if fd, ok := decls[fn]; ok {
				pass.Reportf(fd.Pos(), "%s is a pinned hot-path kernel: it must carry //atomlint:hotpath so alloc regressions fail lint", fn)
			} else if len(pass.Pkg.Files) > 0 {
				pass.Reportf(pass.Pkg.Files[0].Name.Pos(), "required hot-path function %s not found in package: update requiredHotpaths if it was renamed", fn)
			}
		}
	}
}

// funcDisplayName renders a FuncDecl the way requiredHotpaths spells
// it: "Name" for plain functions, "T.Name" for value receivers,
// "(*T).Name" for pointer receivers.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return t.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkHotpathFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	walkParents(fd.Body, func(n ast.Node, parents []ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			checkHotpathComposite(pass, info, v, parents)
		case *ast.CallExpr:
			checkHotpathCall(pass, info, v, parents)
		case *ast.FuncLit:
			if !calledInPlace(v, parents) {
				pass.Reportf(v.Pos(), "closure in hot path: the func value and captured variables escape to the heap")
			}
		}
		return true
	})
}

// checkHotpathComposite flags composite literals that heap-allocate:
// &T{...}, slice literals, and map literals. A plain value struct/array
// literal assigned or passed by value stays on the stack.
func checkHotpathComposite(pass *Pass, info *types.Info, lit *ast.CompositeLit, parents []ast.Node) {
	if len(parents) > 0 {
		if u, ok := parents[len(parents)-1].(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			pass.Reportf(lit.Pos(), "&composite literal in hot path allocates")
			return
		}
		// The inner literal of &T{...} is reported via its parent; the
		// elements of a flagged slice/map literal need no second report.
		if _, ok := parents[len(parents)-1].(*ast.CompositeLit); ok {
			return
		}
	}
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in hot path allocates its backing array")
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in hot path allocates")
	}
}

func checkHotpathCall(pass *Pass, info *types.Info, call *ast.CallExpr, parents []ast.Node) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "make in hot path allocates")
			case "new":
				pass.Reportf(call.Pos(), "new in hot path allocates")
			}
			return
		}
	}
	if p := pkgOf(info, call); p == "fmt" {
		name := calleeName(call.Fun)
		if name != "Errorf" { // error construction is the cold path
			pass.Reportf(call.Pos(), "fmt.%s in hot path allocates (interface boxing + formatting buffers)", name)
		}
		return
	}
	checkHotpathConversion(pass, info, call, parents)
}

// checkHotpathConversion flags string([]byte) and []byte(string)
// conversions, which copy, except the compiler-optimized map-lookup key
// form m[string(b)].
func checkHotpathConversion(pass *Pass, info *types.Info, call *ast.CallExpr, parents []ast.Node) {
	target, ok := isTypeConversion(info, call)
	if !ok {
		return
	}
	argTV, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	src := argTV.Type.Underlying()
	dst := target.Underlying()
	toString := isString(dst) && isByteSlice(src)
	toBytes := isByteSlice(dst) && isString(src)
	if !toString && !toBytes {
		return
	}
	if toString && isMapLookupKey(info, call, parents) {
		return
	}
	pass.Reportf(call.Pos(), "string↔[]byte conversion in hot path copies; only the m[string(b)] lookup form is allocation-free")
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isMapLookupKey reports whether the conversion is the index of a map
// read — m[string(b)] or v, ok := m[string(b)] — which the compiler
// compiles without materializing the string.
func isMapLookupKey(info *types.Info, conv *ast.CallExpr, parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	idx, ok := parents[len(parents)-1].(*ast.IndexExpr)
	if !ok || idx.Index != ast.Expr(conv) {
		return false
	}
	tv, ok := info.Types[idx.X]
	if !ok {
		return false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return false
	}
	// Assignment targets (m[string(b)] = v) are stores, not lookups; the
	// key escapes into the map and the conversion does allocate.
	if len(parents) >= 2 {
		if as, ok := parents[len(parents)-2].(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if lhs == ast.Expr(idx) {
					return false
				}
			}
		}
	}
	return true
}

// calledInPlace reports whether the func literal is immediately invoked
// (fn(){...}() or a go/defer statement's call), so it never escapes.
func calledInPlace(fl *ast.FuncLit, parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	call, ok := parents[len(parents)-1].(*ast.CallExpr)
	return ok && call.Fun == ast.Expr(fl)
}
