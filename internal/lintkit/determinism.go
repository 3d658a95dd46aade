package lintkit

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs names the packages whose outputs must be
// byte-identical at any worker count — the pipeline from raw feeds to
// atoms.
var deterministicPkgs = []string{
	"core", "metrics", "longitudinal", "sanitize",
	"routing", "topology", "collector", "aspath",
	"replay",
}

// Determinism forbids ambient-nondeterminism sources (time.Now,
// math/rand, os.Getenv) inside the deterministic packages, and flags
// map iteration whose results feed an ordered sink — an append to an
// outer slice with no subsequent sort, direct fmt output, or a Write
// call — since Go randomizes map iteration order per run.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/math∕rand/os.Getenv and unsorted map iteration in deterministic packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !hasSuffixPath(pass.Pkg.Path, deterministicPkgs, "internal") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package (seeded RNG must come from internal/topology's explicit generator)", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case pkgFunc(info, call, "time", "Now"):
				pass.Reportf(call.Pos(), "time.Now in deterministic package: thread timestamps in as data")
			case pkgFunc(info, call, "os", "Getenv"), pkgFunc(info, call, "os", "LookupEnv"):
				pass.Reportf(call.Pos(), "environment read in deterministic package: pass configuration explicitly")
			}
			return true
		})
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd)
		}
	}
}

// checkMapRanges flags map-range loops inside fd whose bodies feed an
// order-sensitive sink. An append into a slice declared outside the loop
// is accepted only when the same function later passes that slice to a
// sort call (any callee whose name contains "sort", e.g. sort.Slice,
// slices.Sort, prefixset.SortPrefixes).
func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fd, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isNested := n.(*ast.RangeStmt); isNested && n != ast.Node(rng) {
			// Nested range loops get their own visit from checkMapRanges.
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				checkMapRangeAppend(pass, fd, rng, call)
			}
			return true
		}
		if p := pkgOf(info, call); p == "fmt" {
			name := calleeName(call.Fun)
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint") {
				pass.Reportf(call.Pos(), "fmt.%s inside map iteration: output order follows randomized map order", name)
			}
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
			if pkgOf(info, call) == "" { // a method call, not pkg.Func
				pass.Reportf(call.Pos(), "%s inside map iteration: bytes are emitted in randomized map order", sel.Sel.Name)
			}
		}
		return true
	})
}

// checkMapRangeAppend handles `out = append(out, ...)` inside a map
// range: fine when out is loop-local or later sorted, a finding
// otherwise.
func checkMapRangeAppend(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, call *ast.CallExpr) {
	info := pass.Pkg.Info
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		// Appends to selector/index targets (struct fields, map cells)
		// still accumulate in map order; flag them unless sorted later —
		// matching on the expression text.
		text := exprText(pass.Pkg.Fset, call.Args[0])
		if text == "" || sortedAfterText(pass, fd, rng, text) {
			return
		}
		pass.Reportf(call.Pos(), "append to %s inside map iteration without a later sort", text)
		return
	}
	obj := info.Uses[target]
	if obj == nil {
		obj = info.Defs[target]
	}
	if obj == nil {
		return
	}
	// Declared inside the loop: each iteration gets its own slice.
	if rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
		return
	}
	if sortedAfter(pass, fd, rng, obj) {
		return
	}
	pass.Reportf(call.Pos(), "append to %s inside map iteration without a later sort: element order follows randomized map order", target.Name)
}

// sortedAfter reports whether fd contains, after the range loop, a call
// to a sort-like function receiving obj.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			argFound := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
					argFound = true
					return false
				}
				return true
			})
			if argFound {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sort-like callees by their full source text:
// sort.Ints, sort.Slice, slices.Sort, prefixset.SortPrefixes, sortRows.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	return strings.Contains(strings.ToLower(exprText(pass.Pkg.Fset, call.Fun)), "sort")
}

// sortedAfterText is sortedAfter for non-ident append targets, matched
// by source text.
func sortedAfterText(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, text string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprText(pass.Pkg.Fset, arg) == text {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
