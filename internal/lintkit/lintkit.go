// Package lintkit is the project's static-analysis framework: a
// stdlib-only (go/ast + go/parser + go/types) analyzer harness for the
// defects the tests cannot see — ambient inputs and map-order leaks in
// the deterministic packages, locks left held on untested return paths,
// and goroutines or tickers nothing stops. cmd/atomlint is the
// command-line driver; scripts/verify.sh gates every merge on a clean
// run.
//
// Findings are suppressed per line with
//
//	//atomlint:ignore <analyzer> <reason>
//
// which covers the directive's own line and the line below it. The
// reason is mandatory: a suppression without a stated justification is
// itself a finding.
package lintkit

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
	"time"
)

// Diag is one finding.
type Diag struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one check: a name (used in ignore directives and output),
// a one-line doc string, and a Run function invoked once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one package plus the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diag
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diag{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full analyzer suite, in output order.
var All = []*Analyzer{Determinism, Locks, Lifecycle}

// byName resolves an analyzer name, for directive validation.
func byName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ignoreDirective is one parsed //atomlint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
}

// collectIgnores parses every //atomlint:ignore directive in the
// package. Malformed directives (unknown analyzer, missing reason)
// become diagnostics themselves so suppressions can't silently rot.
func collectIgnores(pkg *Package, diags *[]Diag) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//atomlint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*diags = append(*diags, Diag{Pos: pos, Analyzer: "lintkit",
						Message: "malformed atomlint:ignore directive: want \"//atomlint:ignore <analyzer> <reason>\""})
					continue
				}
				if byName(fields[0]) == nil {
					*diags = append(*diags, Diag{Pos: pos, Analyzer: "lintkit",
						Message: fmt.Sprintf("atomlint:ignore names unknown analyzer %q", fields[0])})
					continue
				}
				out = append(out, ignoreDirective{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on its line or
// the line above.
func suppressed(d Diag, ignores []ignoreDirective) bool {
	for _, ig := range ignores {
		if ig.analyzer == d.Analyzer && ig.file == d.Pos.Filename &&
			(ig.line == d.Pos.Line || ig.line == d.Pos.Line-1) {
			return true
		}
	}
	return false
}

// Run applies the analyzers to each package in turn, filters
// suppressed findings, and returns the rest sorted by position, plus
// each analyzer's wall time summed across packages (indexed like
// analyzers). Directive findings precede the analyzers' in the
// pre-sort stream, so findings sharing a position keep a stable order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diag, []time.Duration) {
	wall := make([]time.Duration, len(analyzers))
	var diags []Diag
	for _, pkg := range pkgs {
		var raw []Diag
		ignores := collectIgnores(pkg, &raw)
		for j, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &raw})
			wall[j] += time.Since(start)
		}
		for _, d := range raw {
			if !suppressed(d, ignores) {
				diags = append(diags, d)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, wall
}

// Exit codes returned by Main.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// Options configures a driver run beyond the analyzer set.
type Options struct {
	// JSON emits the findings as a JSON array on w (machine-readable,
	// for CI artifacts) instead of one text line per finding.
	JSON bool
	// Timings, when non-nil, receives one per-analyzer wall-time line
	// after the run — kept off w so findings output stays stable.
	Timings io.Writer
}

// Main is the driver behind cmd/atomlint: load the module at dir,
// filter packages by the given patterns ("./..." or import-path /
// directory prefixes; none means all), run the analyzers, and print
// findings to w. Returns the process exit code: 0 clean, 1 findings,
// 2 load error.
func Main(w io.Writer, dir string, patterns []string, analyzers []*Analyzer, opts Options) int {
	loader, err := NewLoader(dir)
	if err != nil {
		fmt.Fprintf(w, "atomlint: %v\n", err)
		return ExitError
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(w, "atomlint: %v\n", err)
		return ExitError
	}
	pkgs, err = filterPackages(pkgs, loader.ModPath, patterns)
	if err != nil {
		fmt.Fprintf(w, "atomlint: %v\n", err)
		return ExitError
	}
	diags, wall := Run(pkgs, analyzers)
	if opts.Timings != nil {
		for j, a := range analyzers {
			fmt.Fprintf(opts.Timings, "atomlint: %-12s %s\n", a.Name, wall[j].Round(time.Millisecond))
		}
	}
	if opts.JSON {
		writeDiagsJSON(w, diags)
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(w, "atomlint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// writeDiagsJSON emits findings as a JSON array (always an array, `[]`
// when clean) so CI can archive the run's findings as an artifact.
func writeDiagsJSON(w io.Writer, diags []Diag) {
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// filterPackages selects the packages matching the command-line
// patterns. "./..." and "..." match everything; "./x/..." matches the
// subtree; "./x", "./x/" or "mod/x" matches one package. A pattern that
// matches no package is an error, so a scoped run cannot pass while
// checking nothing.
func filterPackages(pkgs []*Package, modPath string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	matches := func(pat string, p *Package) bool {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "..." || pat == "." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			full := modPath + "/" + sub
			return p.Path == full || strings.HasPrefix(p.Path, full+"/") ||
				p.Path == sub || strings.HasPrefix(p.Path, sub+"/")
		}
		return p.Path == pat || p.Path == modPath+"/"+pat
	}
	hit := make([]bool, len(patterns))
	var out []*Package
	for _, p := range pkgs {
		matched := false
		for i, pat := range patterns {
			if matches(pat, p) {
				hit[i], matched = true, true
			}
		}
		if matched {
			out = append(out, p)
		}
	}
	for i, pat := range patterns {
		if !hit[i] {
			return nil, fmt.Errorf("pattern %q matches no package", pat)
		}
	}
	return out, nil
}
