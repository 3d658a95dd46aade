// Command gensim synthesizes MRT archives — TABLE_DUMP_V2 RIB dumps and
// BGP4MP update streams — for one era of the simulated Internet, in the
// same wire format RIPE RIS and RouteViews publish.
//
// Usage:
//
//	gensim -out ./data -year 2024 -quarter 4 -scale 0.01 -seed 7 [-workers n] [-trace out.json] [-v]
//
// Writes one <collector>.rib.mrt and one <collector>.updates.mrt file
// per simulated collector. Output depends only on (-seed, -scale,
// -year, -quarter); -workers trades wall-clock for cores, and the
// shared observability flags (-trace, -v, -listen, -sample, -progress,
// -trace-out) expose the run without changing a byte of it.
//
// With -faults, gensim additionally writes seeded-corrupt copies of
// every archive under <out>/faulted/, plus faults.schedule — the
// canonical fault plan (see internal/faultgen). The damaged set depends
// only on (-fault-seed, the clean archives, the class list), so a
// failing downstream run is reproducible from the flags alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/collector"
	"repro/internal/faultgen"
	"repro/internal/longitudinal"
	"repro/internal/topology"

	"repro/internal/cli"
)

const tool = "gensim"

func main() {
	var (
		out       = flag.String("out", "./data", "output directory")
		year      = flag.Int("year", 2024, "snapshot year (2002-2024)")
		quarter   = flag.Int("quarter", 1, "snapshot quarter (1-4)")
		scale     = flag.Float64("scale", 0.01, "world scale (1.0 = paper scale)")
		seed      = flag.Uint64("seed", 7, "simulation seed")
		hours     = flag.Float64("update-hours", 4, "hours of updates after the snapshot")
		artifacts = flag.Bool("artifacts", true, "inject the paper's data defects (ADD-PATH, AS65000, duplicates)")
		faults    = flag.String("faults", "", "also emit fault-injected archives: comma-separated class list, or \"all\"")
		faultSeed = flag.Uint64("fault-seed", 1, "fault schedule seed (independent of -seed)")
		faultsPer = flag.Int("faults-per-archive", 1, "faults of each class planned per archive")
	)
	workers := cli.NewWorkers()
	o := cli.NewObs(tool)
	flag.Parse()
	o.Start()
	defer o.Finish()

	era := topology.EraOf(*year, *quarter)
	cfg := longitudinal.DefaultConfig(*seed)
	cfg.Scale = *scale
	cfg.Artifacts = *artifacts
	cfg.Workers = *workers
	cfg.Trace = o.Root
	cfg.Metrics = o.Registry
	cfg.Progress = o.Progress
	r := longitudinal.NewEraRun(cfg, era)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		cli.Fatal(tool, err)
	}

	rsp := o.Root.Child("build_ribs")
	ts := collector.EpochOf(era)
	ov := r.Model.OverlayAt(r.Graph, longitudinal.OffsetBase, r.Infra.FullFeedASNs())
	snap := collector.BuildRIBs(r.Graph, r.Infra, ov, ts)
	archives := make(map[string][]byte)
	total := 0
	for _, name := range sortedNames(snap.Archives) {
		data := snap.Archives[name]
		path := filepath.Join(*out, name+".rib.mrt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			cli.Fatal(tool, err)
		}
		archives[name+".rib.mrt"] = data
		total += len(data)
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
	rsp.SetAttr("archives", len(snap.Archives))
	rsp.SetAttr("bytes", total)
	rsp.End()

	usp := o.Root.Child("build_updates")
	updates := r.UpdateSources(longitudinal.OffsetBase, longitudinal.OffsetBase+*hours/24)
	updateBytes := 0
	for _, src := range updates {
		path := filepath.Join(*out, src.Collector+".updates.mrt")
		if err := os.WriteFile(path, src.Data, 0o644); err != nil {
			cli.Fatal(tool, err)
		}
		archives[src.Collector+".updates.mrt"] = src.Data
		total += len(src.Data)
		updateBytes += len(src.Data)
		fmt.Printf("wrote %s (%d bytes)\n", path, len(src.Data))
	}
	usp.SetAttr("archives", len(updates))
	usp.SetAttr("bytes", updateBytes)
	usp.End()

	if *faults != "" {
		classes, err := faultgen.ParseClasses(*faults)
		if err != nil {
			cli.Fatal(tool, err)
		}
		fsp := o.Root.Child("inject_faults")
		sched, err := faultgen.Plan(faultgen.Config{
			Seed:             *faultSeed,
			Classes:          classes,
			FaultsPerArchive: *faultsPer,
		}, archives)
		if err != nil {
			cli.Fatal(tool, err)
		}
		damaged, err := faultgen.Apply(sched, archives)
		if err != nil {
			cli.Fatal(tool, err)
		}
		fdir := filepath.Join(*out, "faulted")
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			cli.Fatal(tool, err)
		}
		faultBytes := 0
		for _, name := range sortedNames(damaged) {
			data := damaged[name]
			path := filepath.Join(fdir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				cli.Fatal(tool, err)
			}
			faultBytes += len(data)
			fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
		}
		schedPath := filepath.Join(fdir, "faults.schedule")
		if err := os.WriteFile(schedPath, sched.Marshal(), 0o644); err != nil {
			cli.Fatal(tool, err)
		}
		fmt.Printf("wrote %s (%d faults)\n", schedPath, len(sched.Faults))
		fsp.SetAttr("faults", len(sched.Faults))
		fsp.SetAttr("bytes", faultBytes)
		fsp.End()
	}

	v4, v6 := r.Graph.TotalPrefixes()
	fmt.Printf("era %v: %d ASes, %d v4 + %d v6 prefixes, %d collectors, %d full feeds, %d bytes total\n",
		era, r.Graph.NumASes(), v4, v6, len(r.Infra.Collectors), len(r.Infra.FullFeedASNs()), total)
}

// sortedNames returns the archive names in sorted order, so stdout lists
// the written files in the same order on every run.
func sortedNames(archives map[string][]byte) []string {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
