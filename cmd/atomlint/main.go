// Command atomlint runs the project's static-analysis suite
// (internal/lintkit) over the module: determinism, hotpath, wiresafety,
// locks, aliasing, and lifecycle. It loads every package with the
// standard library's go/parser + go/types only — no external analysis
// frameworks.
//
// Usage:
//
//	atomlint [-C dir] [-only analyzer[,analyzer]] [-json] [packages]
//
// Packages are import-path patterns relative to the module
// ("./...", "./internal/bgp", "repro/internal/mrt/..."); none means the
// whole module. Exit status: 0 clean, 1 findings, 2 load error.
//
// Standard-library imports are read from the toolchain's export data,
// and the analyzers run over the packages in one sequential pass. -json
// emits the findings as a JSON array for CI artifacts. Under -v the
// per-analyzer wall time is printed to stderr.
//
// The shared observability flags apply (-trace, -v, -listen, -sample,
// -progress, -trace-out): a lint of a large module can be profiled and
// watched like any pipeline run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/lintkit"
)

const tool = "atomlint"

func main() {
	dir := flag.String("C", ".", "module root directory")
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (for CI artifacts)")
	o := cli.NewObs(tool)
	flag.Parse()

	if *list {
		for _, a := range lintkit.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lintkit.All
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, a := range lintkit.All {
				if a.Name == name {
					analyzers = append(analyzers, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "atomlint: unknown analyzer %q\n", name)
				os.Exit(lintkit.ExitError)
			}
		}
	}

	opts := lintkit.Options{JSON: *jsonOut}
	if o.Verbose {
		opts.Timings = os.Stderr
	}

	// os.Exit skips defers, so the obs lifecycle brackets the run
	// explicitly: trace/report/trace-out are written before exiting.
	o.Start()
	o.Root.SetAttr("analyzers", len(analyzers))
	code := lintkit.Main(os.Stdout, *dir, flag.Args(), analyzers, opts)
	o.Root.SetAttr("exit", code)
	o.Finish()
	os.Exit(code)
}
