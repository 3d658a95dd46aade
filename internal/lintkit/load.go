package lintkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package: the syntax trees plus the
// type information every analyzer consumes.
type Package struct {
	Path  string // import path, e.g. "repro/internal/bgp"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module using only the
// standard library: module-internal imports are resolved against the
// module directory, everything else is read from the toolchain's
// compiled export data (go/importer's "gc" importer), so the standard
// library is never type-checked from source. One batched go list call
// per process locates the export data of every standard package. Test
// files are skipped — analyzers gate production code.
type Loader struct {
	ModPath string
	ModDir  string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle detection
	errs    []error
}

// NewLoader returns a loader rooted at the module directory dir, reading
// the module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return newLoader(modPath, abs)
}

func newLoader(modPath, dir string) (*Loader, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("lintkit: no export data for %q (not a standard package)", path)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModPath: modPath,
		ModDir:  dir,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", lookup),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// stdExports maps every standard-library import path to its export
// data file. Left to itself the "gc" importer runs one go list per
// imported package; one batched call over std replaces them all.
var stdExports = sync.OnceValues(func() (map[string]string, error) { return listExports("go") })

// listExports runs the go command goCmd once to list the export data
// of every standard package.
func listExports(goCmd string) (map[string]string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(goCmd, "list", "-export", "-json=ImportPath,Export", "std")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintkit: go list -export std: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			return exports, nil
		} else if err != nil {
			return nil, fmt.Errorf("lintkit: go list -export std: %v", err)
		}
		exports[p.ImportPath] = p.Export
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lintkit: no module line in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the module package at the given import
// path, memoized across the whole LoadAll run.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lintkit: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModDir, filepath.FromSlash(rel))
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loadDir parses the non-test Go files in dir and type-checks them as
// the package with the given import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if excludedByBuildTags(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: %s", errNoGoFiles, dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadAll loads every package under the module root (skipping testdata,
// vendor, and hidden directories), in deterministic path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.ModDir, dir)
		if err != nil {
			return err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	paths = dedupe(paths)

	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if errors.Is(err, errNoGoFiles) {
			continue // every file in the dir is excluded by build tags
		}
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// errNoGoFiles marks a directory whose Go files are all excluded by
// build constraints — skipped by LoadAll, an error when imported.
var errNoGoFiles = errors.New("lintkit: no buildable Go files")

// LoadFixture type-checks a standalone directory as a package with the
// given (possibly synthetic) import path — the fixture-test entry point,
// which lets testdata packages impersonate scoped paths like
// "repro/internal/core".
func LoadFixture(dir, importPath string) (*Package, error) {
	l, err := newLoader(importPath, dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(dir, importPath)
}

// excludedByBuildTags reports whether a //go:build line above the
// package clause rules the file out for the current platform (tags like
// "ignore" on the helper scripts, or a foreign GOOS/GOARCH).
func excludedByBuildTags(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			ok := expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
			})
			if !ok {
				return true
			}
		}
	}
	return false
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
