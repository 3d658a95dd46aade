// Command atomlint runs the project's static-analysis suite
// (internal/lintkit) over the module: determinism, locks, and lifecycle
// — the checks that catch defects the tests cannot see. It loads every
// package with the standard library's go/parser + go/types only — no
// external analysis frameworks.
//
// Usage:
//
//	atomlint [-list] [-json] [-v] [packages]
//
// It runs in the module root. Packages are import-path patterns
// relative to the module ("./...", "./internal/bgp", "./internal/atomd/",
// "repro/internal/mrt/..."); none means the whole module. Exit status:
// 0 clean, 1 findings, 2 load error or a pattern that matches no
// package.
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

	"repro/internal/cli"
	"repro/internal/lintkit"
)

const tool = "atomlint"

func main() {
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

	opts := lintkit.Options{JSON: *jsonOut}
	if o.Verbose {
		opts.Timings = os.Stderr
	}

	// os.Exit skips defers, so the obs lifecycle brackets the run
	// explicitly: trace/report/trace-out are written before exiting.
	o.Start()
	o.Root.SetAttr("analyzers", len(lintkit.All))
	code := lintkit.Main(os.Stdout, ".", flag.Args(), lintkit.All, opts)
	o.Root.SetAttr("exit", code)
	o.Finish()
	os.Exit(code)
}
