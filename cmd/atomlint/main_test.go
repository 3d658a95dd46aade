package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lintkit"
)

// The driver's flag surface (-list, -json, -v), pattern matching and
// exit-code contract are process-level behavior: cli.NewObs binds the
// shared observability flags onto the default FlagSet, so the binary is
// exercised end-to-end via os/exec rather than by calling main twice.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func lintBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "atomlint-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "atomlint")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			buildBin = ""
			os.RemoveAll(dir)
			t.Logf("go build output:\n%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build atomlint: %v", buildErr)
	}
	t.Cleanup(func() {}) // binary shared across tests; removed by TestMain below
	return buildBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildBin != "" {
		os.RemoveAll(filepath.Dir(buildBin))
	}
	os.Exit(code)
}

// runLint runs the binary in dir (the module root it lints).
func runLint(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(lintBinary(t), args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String(), errb.String(), exit
}

// findingModule writes a module with exactly one deterministic finding
// (a time.Now in the determinism-scoped internal/metrics).
func findingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                      "module fixturemod\n\ngo 1.22\n",
		"internal/metrics/metrics.go": "package metrics\n\nimport \"time\"\n\n// Stamp is nondeterministic on purpose.\nfunc Stamp() int64 { return time.Now().Unix() }\n",
	}
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestListFlag(t *testing.T) {
	stdout, _, exit := runLint(t, "", "-list")
	if exit != lintkit.ExitClean {
		t.Fatalf("-list exit = %d, want 0", exit)
	}
	for _, a := range lintkit.All {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, stdout)
		}
	}
	if n := strings.Count(stdout, "\n"); n != len(lintkit.All) {
		t.Errorf("-list lines = %d, want %d", n, len(lintkit.All))
	}
}

func TestFindingsExit(t *testing.T) {
	stdout, _, exit := runLint(t, findingModule(t))
	if exit != lintkit.ExitFindings {
		t.Fatalf("exit = %d, want %d; output:\n%s", exit, lintkit.ExitFindings, stdout)
	}
	if !strings.Contains(stdout, "time.Now") || !strings.Contains(stdout, "finding(s)") {
		t.Errorf("findings output missing diagnostic or summary:\n%s", stdout)
	}
}

// A scoped run must check what it names: a trailing slash still names
// the package, and a pattern that matches nothing is an error rather
// than a clean pass over zero packages.
func TestPatternMatchingNothing(t *testing.T) {
	dir := findingModule(t)
	if stdout, _, exit := runLint(t, dir, "./internal/metrics/"); exit != lintkit.ExitFindings {
		t.Errorf("./internal/metrics/ exit = %d, want %d; output:\n%s", exit, lintkit.ExitFindings, stdout)
	}
	for _, pat := range []string{"./internal/nosuchpkg", "./internal/nosuchpkg/...", "./internal/metrics/x/"} {
		stdout, _, exit := runLint(t, dir, pat)
		if exit != lintkit.ExitError {
			t.Errorf("%s exit = %d, want %d; output:\n%s", pat, exit, lintkit.ExitError, stdout)
		}
		if !strings.Contains(stdout, "matches no package") {
			t.Errorf("%s output does not say the pattern matched nothing:\n%s", pat, stdout)
		}
	}
}

func TestLoadErrorExit(t *testing.T) {
	_, _, exit := runLint(t, t.TempDir())
	if exit != lintkit.ExitError {
		t.Errorf("non-module dir exit = %d, want %d", exit, lintkit.ExitError)
	}
}

func TestJSONFlag(t *testing.T) {
	stdout, _, exit := runLint(t, findingModule(t), "-json")
	if exit != lintkit.ExitFindings {
		t.Fatalf("-json exit = %d, want %d", exit, lintkit.ExitFindings)
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Analyzer != "determinism" {
		t.Errorf("-json findings = %+v, want one determinism finding", findings)
	}
}

func TestVerboseTimings(t *testing.T) {
	_, stderr, _ := runLint(t, findingModule(t), "-v")
	for _, a := range lintkit.All {
		if !strings.Contains(stderr, a.Name) {
			t.Errorf("-v stderr missing per-analyzer timing for %s:\n%s", a.Name, stderr)
		}
	}
}
