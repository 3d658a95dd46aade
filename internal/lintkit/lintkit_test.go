package lintkit

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixtures under testdata/src mark each expected finding with a
// trailing `// want "substring"` comment on the diagnostic's line. The
// harness demands an exact match both ways: every diagnostic must hit
// an unclaimed want, and every want must be claimed — so a disabled or
// regressed analyzer fails the test with the exact missing line.

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

type wantDiag struct {
	file    string
	line    int
	substr  string
	matched bool
}

// loadFixtureT loads testdata/src/<dir> type-checked under the given
// (synthetic) import path.
func loadFixtureT(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := LoadFixture(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("load fixture %s as %s: %v", dir, importPath, err)
	}
	return pkg
}

// runDiags is Run without the timings.
func runDiags(pkgs []*Package, analyzers []*Analyzer) []Diag {
	diags, _ := Run(pkgs, analyzers)
	return diags
}

func collectWants(pkg *Package) []*wantDiag {
	var wants []*wantDiag
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixtureT(t, dir, importPath)
	wants := collectWants(pkg)
	diags := runDiags([]*Package{pkg}, analyzers)
	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

// The fixtures run under the full suite: the scoped analyzers must not
// bleed into each other's fixtures, and the target analyzer must produce
// exactly the marked findings.

// The determinism fixture loads as internal/metrics, a
// deterministic-scope package.
func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", "repro/internal/metrics", All)
}

func TestLocksFixture(t *testing.T) {
	checkFixture(t, "locks", "repro/internal/lockfix", All)
}

// vetRe matches one go vet finding line: file:line:col: message.
var vetRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.+)$`)

// TestVetFlagsLockCopies pins the split with go vet: the locks analyzer
// checks only Lock/Unlock pairing, so every by-value lock copy shape in
// testdata/src/lockcopy must be a copylocks finding. The fixture is
// vetted in a scratch module, and vet's findings must match its want
// markers exactly.
func TestVetFlagsLockCopies(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "lockcopy", "lockcopy.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantDiag
	for i, line := range strings.Split(string(src), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			wants = append(wants, &wantDiag{file: "lockcopy.go", line: i + 1, substr: m[1]})
		}
	}
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{"go.mod": fixtureGoMod, "lockcopy.go": string(src)})
	cmd := exec.Command("go", "vet", "-copylocks", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if _, findings := err.(*exec.ExitError); err != nil && !findings {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := vetRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(m[1]) && w.line == n && strings.Contains(m[3], w.substr) {
				w.matched, claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected vet finding: %s", line)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want vet finding containing %q, got none; vet output:\n%s", w.file, w.line, w.substr, out)
		}
	}
}

func TestLifecycleFixture(t *testing.T) {
	checkFixture(t, "lifecycle", "repro/internal/lifefix", All)
}

// TestFixtureSilentWithAnalyzerDisabled is the golden inversion: running
// a fixture with its analyzer removed must produce zero diagnostics —
// proving every marked finding is attributable to that one check (and
// that the fixture test above genuinely fails if the check is disabled).
func TestFixtureSilentWithAnalyzerDisabled(t *testing.T) {
	cases := []struct {
		dir, path string
		disabled  *Analyzer
	}{
		{"determinism", "repro/internal/metrics", Determinism},
		{"locks", "repro/internal/lockfix", Locks},
		{"lifecycle", "repro/internal/lifefix", Lifecycle},
	}
	for _, tc := range cases {
		var rest []*Analyzer
		for _, a := range All {
			if a != tc.disabled {
				rest = append(rest, a)
			}
		}
		pkg := loadFixtureT(t, tc.dir, tc.path)
		if diags := runDiags([]*Package{pkg}, rest); len(diags) != 0 {
			t.Errorf("%s fixture with %s disabled: %d diagnostic(s), want 0 (first: %s)",
				tc.dir, tc.disabled.Name, len(diags), diags[0])
		}
	}
}

// TestScopedAnalyzersRespectPackagePaths loads the violation-riddled
// fixture sources under paths outside the analyzer's scope: the
// allowlist must silence everything.
func TestScopedAnalyzersRespectPackagePaths(t *testing.T) {
	pkg := loadFixtureT(t, "determinism", "repro/internal/textplot")
	if diags := runDiags([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("determinism fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
	pkg = loadFixtureT(t, "lifecycle", "repro/internal/textplot")
	if diags := runDiags([]*Package{pkg}, []*Analyzer{Lifecycle}); len(diags) != 0 {
		t.Errorf("lifecycle fixture under internal/textplot: %d diagnostic(s), want 0 (first: %s)", len(diags), diags[0])
	}
}

// TestIgnoreSuppression pins down //atomlint:ignore semantics: a valid
// directive silences its analyzer on its own line and the line below,
// a directive for another analyzer suppresses nothing, and malformed or
// unknown-analyzer directives are themselves findings.
func TestIgnoreSuppression(t *testing.T) {
	pkg := loadFixtureT(t, "ignore", "repro/internal/core")
	diags := runDiags([]*Package{pkg}, []*Analyzer{Determinism})

	var det, kit []Diag
	for _, d := range diags {
		switch d.Analyzer {
		case "determinism":
			det = append(det, d)
		case "lintkit":
			kit = append(kit, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	// Six time.Now calls; the two properly-suppressed ones must vanish,
	// the other four (unsuppressed, wrong analyzer, malformed directive,
	// unknown analyzer) must survive.
	if len(det) != 4 {
		t.Errorf("determinism diagnostics = %d, want 4: %v", len(det), det)
	}
	if len(kit) != 2 {
		t.Fatalf("lintkit directive diagnostics = %d, want 2: %v", len(kit), kit)
	}
	if !strings.Contains(kit[0].Message, "malformed atomlint:ignore") {
		t.Errorf("first directive diagnostic = %q, want malformed-directive finding", kit[0].Message)
	}
	if !strings.Contains(kit[1].Message, "unknown analyzer") {
		t.Errorf("second directive diagnostic = %q, want unknown-analyzer finding", kit[1].Message)
	}
}

// writeTree writes a map of relative path → contents under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const fixtureGoMod = "module fixturemod\n\ngo 1.22\n"

func TestMainExitCleanModule(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": fixtureGoMod,
		"ok.go":  "package cleanmod\n\n// OK is fine.\nfunc OK() int { return 1 }\n",
	})
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All, Options{}); got != ExitClean {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitClean, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

func TestMainExitFindings(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                fixtureGoMod,
		"internal/core/core.go": "package core\n\nimport \"time\"\n\n// Stamp is nondeterministic on purpose.\nfunc Stamp() int64 { return time.Now().Unix() }\n",
	})
	var out, timings bytes.Buffer
	if got := Main(&out, dir, nil, All, Options{Timings: &timings}); got != ExitFindings {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitFindings, out.String())
	}
	if s := out.String(); !strings.Contains(s, "time.Now") || !strings.Contains(s, "finding(s)") {
		t.Errorf("findings output missing diagnostic or summary:\n%s", s)
	}
	// One wall-time line per analyzer, on the timings writer only.
	if lines := strings.Count(timings.String(), "\n"); lines != len(All) {
		t.Errorf("timings lines = %d, want %d:\n%s", lines, len(All), timings.String())
	}
	for _, a := range All {
		if !strings.Contains(timings.String(), a.Name) {
			t.Errorf("timings output missing analyzer %s:\n%s", a.Name, timings.String())
		}
		if strings.Contains(out.String(), "atomlint: "+a.Name) {
			t.Errorf("timing line for %s leaked into findings output:\n%s", a.Name, out.String())
		}
	}

	// Pattern filtering: naming the offending package still finds it,
	// with or without a trailing slash; a pattern that matches no
	// package is an error, not a clean pass over nothing.
	for _, pat := range []string{"./internal/core", "./internal/core/", "fixturemod/internal/..."} {
		out.Reset()
		if got := Main(&out, dir, []string{pat}, All, Options{}); got != ExitFindings {
			t.Errorf("Main(%s) = %d, want %d", pat, got, ExitFindings)
		}
	}
	out.Reset()
	if got := Main(&out, dir, []string{"./internal/core", "./internal/other/..."}, All, Options{}); got != ExitError {
		t.Errorf("Main(./internal/other/...) = %d, want %d; output:\n%s", got, ExitError, out.String())
	}
	if !strings.Contains(out.String(), `"./internal/other/..." matches no package`) {
		t.Errorf("no-match output does not name the pattern:\n%s", out.String())
	}
}

// findingsTree is a small module with deterministic findings spread
// over three packages in the determinism scope.
func findingsTree(t *testing.T) string {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                        fixtureGoMod,
		"internal/routing/routing.go":   "package routing\n\nimport \"time\"\n\n// Stamp is nondeterministic on purpose.\nfunc Stamp() int64 { return time.Now().Unix() }\n",
		"internal/sanitize/sanitize.go": "package sanitize\n\nimport \"time\"\n\n// When is nondeterministic on purpose.\nfunc When() int64 { return time.Now().UnixNano() }\n",
		"internal/metrics/metrics.go":   "package metrics\n\nimport \"time\"\n\n// Tick is nondeterministic on purpose.\nfunc Tick() int64 { return time.Now().UnixMilli() }\n",
	})
	return dir
}

// TestMainJSON pins the -json contract: a JSON array of findings
// with stable fields, an empty array on a clean tree, and exit codes
// unchanged.
func TestMainJSON(t *testing.T) {
	dir := findingsTree(t)
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All, Options{JSON: true}); got != ExitFindings {
		t.Fatalf("Main(json) = %d, want %d; output:\n%s", got, ExitFindings, out.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) != 3 {
		t.Fatalf("json findings = %d, want 3: %s", len(findings), out.String())
	}
	for _, f := range findings {
		if f.Analyzer != "determinism" || f.File == "" || f.Line == 0 || !strings.Contains(f.Message, "time.") {
			t.Errorf("unexpected json finding: %+v", f)
		}
	}

	// Clean tree: an empty array, not empty output.
	clean := t.TempDir()
	writeTree(t, clean, map[string]string{
		"go.mod": fixtureGoMod,
		"ok.go":  "package cleanmod\n\n// OK is fine.\nfunc OK() int { return 1 }\n",
	})
	out.Reset()
	if got := Main(&out, clean, nil, All, Options{JSON: true}); got != ExitClean {
		t.Fatalf("Main(json, clean) = %d, want %d", got, ExitClean)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean json output = %q, want []", out.String())
	}
}

func TestMainExitLoadError(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": fixtureGoMod,
		"bad.go": "package broken\n\nfunc (\n",
	})
	var out bytes.Buffer
	if got := Main(&out, dir, nil, All, Options{}); got != ExitError {
		t.Fatalf("Main = %d, want %d; output:\n%s", got, ExitError, out.String())
	}
	if !strings.Contains(out.String(), "atomlint:") {
		t.Errorf("load-error output missing atomlint prefix:\n%s", out.String())
	}

	// A directory that is not a module at all is also a load error.
	out.Reset()
	if got := Main(&out, t.TempDir(), nil, All, Options{}); got != ExitError {
		t.Errorf("Main on non-module dir = %d, want %d", got, ExitError)
	}
}

// The standard library's export data comes from one go list call; the
// map must cover what the analyzers import, and a failing call must
// surface as an error rather than an empty map.
func TestListExports(t *testing.T) {
	exports, err := listExports("go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"fmt", "sync/atomic", "net/netip"} {
		if exports[path] == "" {
			t.Errorf("no export data listed for %s", path)
		}
	}
	if _, err := listExports(filepath.Join(t.TempDir(), "no-such-go")); err == nil {
		t.Error("a failing go list returned no error")
	}
}
