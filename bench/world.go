package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomd"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/replay"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// daemonEra is the era every daemon world is drawn from.
var daemonEra = topology.EraOf(2024, 1)

// sizeTolerance is how far a world's size may sit from the reference
// size for sizedSeed to take it.
const sizeTolerance = 0.02

// worldSize is the product of announced IPv4 prefixes and collector
// peers, summed over the eras: the number of routes the collectors
// carry, which run time and memory of every workload track.
func worldSize(seed uint64, scale float64, eras []topology.Era) float64 {
	cfg := longitudinal.DefaultConfig(seed)
	cfg.Scale = scale
	total := 0.0
	for _, era := range eras {
		r := longitudinal.NewEraRun(cfg, era)
		v4, _ := r.Graph.TotalPrefixes()
		peers := 0
		for _, c := range r.Infra.Collectors {
			peers += len(c.Peers)
		}
		total += float64(v4 * peers)
	}
	return total
}

// sizedSeed maps a workload seed to the seed of a world of the
// reference size: the median size of the worlds of seeds 1 to 9. World
// size varies ±20% between seeds, and run time and peak memory follow
// it, which buried a change's effect under the choice of seed. The
// candidates seed<<8 | 0, 1, 2, ... are tried in order and the first
// within sizeTolerance of the reference is taken (the closest, if none
// of 256 is), so the seed varies the routing content of the world and
// not its volume. Generating a candidate's topology takes milliseconds.
func sizedSeed(seed uint64, scale float64, eras []topology.Era) uint64 {
	ref := make([]float64, 0, 9)
	for s := uint64(1); s <= 9; s++ {
		ref = append(ref, worldSize(s, scale, eras))
	}
	target := median(ref)
	best, bestDist := seed<<8, math.Inf(1)
	for attempt := uint64(0); attempt < 256; attempt++ {
		cand := seed<<8 | attempt
		d := math.Abs(worldSize(cand, scale, eras)/target - 1)
		if d <= sizeTolerance {
			return cand
		}
		if d < bestDist {
			best, bestDist = cand, d
		}
	}
	return best
}

// world is one era's collector output as a daemon would see it: RIB
// archives to boot from and update archives to stream in, both sorted
// by collector name.
type world struct {
	ribs    []bgpstream.Source
	updates []bgpstream.Source
}

// buildWorld generates the daemon world for a seed: the 2024Q1 era at
// the given scale, RIBs dumped at the first paper snapshot under the
// churn model's overlay for the full-feed VPs, and the following hours
// of update archives.
//
// The world has no collector artifacts. One artifact is a BGP4MP record
// of an unknown subtype; the ingest client frames bytes that do not
// parse as a known record in raw 4 KiB chunks, and from such a record
// on it never finds a record boundary again, so the rest of that
// archive travels ~40 records per frame instead of one. Where the first
// such record falls decides a collector's framing cost, which made
// ingest throughput swing 2x between seeds of the same size.
func buildWorld(seed uint64, scale, hours float64) *world {
	cfg := longitudinal.DefaultConfig(seed)
	cfg.Scale = scale
	cfg.Artifacts = false
	r := longitudinal.NewEraRun(cfg, daemonEra)
	ov := r.Model.OverlayAt(r.Graph, longitudinal.OffsetBase, r.Infra.FullFeedASNs())
	ribs := collector.BuildRIBs(r.Graph, r.Infra, ov, collector.EpochOf(r.Era))
	names := make([]string, 0, len(ribs.Archives))
	for name := range ribs.Archives {
		names = append(names, name)
	}
	sort.Strings(names)
	w := &world{}
	for _, name := range names {
		w.ribs = append(w.ribs, bgpstream.BytesSource(name, ribs.Archives[name], bgp.Options{}))
	}
	w.updates = r.UpdateSources(longitudinal.OffsetBase, longitudinal.OffsetBase+hours/24)
	return w
}

func (w *world) bytes() (ribs, updates int) {
	for _, s := range w.ribs {
		ribs += len(s.Data)
	}
	for _, s := range w.updates {
		updates += len(s.Data)
	}
	return ribs, updates
}

// writeRIBs stores the RIB archives as <collector>.rib.mrt under dir,
// the file names atomd derives collector names from.
func (w *world) writeRIBs(dir string) ([]string, error) {
	var paths []string
	for _, s := range w.ribs {
		p := filepath.Join(dir, s.Collector+".rib.mrt")
		if err := os.WriteFile(p, s.Data, 0o644); err != nil {
			return nil, fmt.Errorf("write RIB archive: %w", err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// universe runs the boot path atomd runs on its RIB arguments: the
// default sanitize pipeline over IPv4.
func universe(ribs []bgpstream.Source, workers int) (*core.Snapshot, error) {
	opts := sanitize.Defaults()
	opts.Family = 4
	opts.Workers = workers
	snap, _, err := sanitize.Clean(ribs, nil, opts)
	if err != nil {
		return nil, fmt.Errorf("sanitize RIBs: %w", err)
	}
	return snap, nil
}

// sourcePlan is one collector's update archive split at MRT record
// boundaries, with the number of mapped updates (elements that land in
// a matrix cell) every prefix of records carries. The paced sender
// schedules records by it, and visibility is judged against it.
type sourcePlan struct {
	collector string
	data      []byte
	ends      []int // ends[i] is the byte offset just past record i
	cum       []int // cum[i] is the mapped updates in records 0..i
}

func (p sourcePlan) mapped() int {
	if len(p.cum) == 0 {
		return 0
	}
	return p.cum[len(p.cum)-1]
}

// head returns the plan cut after its last record that keeps the
// mapped updates within n.
func (p sourcePlan) head(n int) sourcePlan {
	i := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] > n })
	if i == 0 {
		return sourcePlan{collector: p.collector}
	}
	return sourcePlan{collector: p.collector, data: p.data[:p.ends[i-1]], ends: p.ends[:i], cum: p.cum[:i]}
}

// recordEnd returns the offset just past the MRT record starting at off
// (header length 12 plus the header's length field), or ok=false when
// no whole record starts there.
func recordEnd(data []byte, off int) (int, bool) {
	if len(data)-off < 12 {
		return 0, false
	}
	end := off + 12 + int(binary.BigEndian.Uint32(data[off+8:off+12]))
	if end > len(data) {
		return 0, false
	}
	return end, true
}

// planSources decodes every record of every update source on its own
// through the public pipeline — bgpstream with the universe's intern
// table, then replay's Mapper — and counts what each record maps to.
// Decoding a record alone yields the same elements as decoding it in
// its stream: BGP4MP records carry no cross-record state.
func planSources(snap *core.Snapshot, updates []bgpstream.Source) ([]sourcePlan, error) {
	mapper := replay.NewMapper(snap)
	plans := make([]sourcePlan, 0, len(updates))
	for _, src := range updates {
		p := sourcePlan{collector: src.Collector, data: src.Data}
		total := 0
		off := 0
		for off < len(src.Data) {
			end, ok := recordEnd(src.Data, off)
			if !ok {
				return nil, fmt.Errorf("plan %s: truncated record at offset %d", src.Collector, off)
			}
			st := bgpstream.NewStream(nil, bgpstream.BytesSource(src.Collector, src.Data[off:end], src.Options))
			st.SetWorkers(1)
			st.SetIntern(snap.Paths)
			for {
				batch, err := st.NextBatch()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("plan %s: %w", src.Collector, err)
				}
				for i := range batch {
					if _, _, _, reason := mapper.Map(&batch[i]); reason == replay.SkipNone {
						total++
					}
				}
			}
			p.ends = append(p.ends, end)
			p.cum = append(p.cum, total)
			off = end
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// referenceAtoms is the batch answer a drained daemon must serve: the
// update segments replayed in order into an AtomIndex over the universe,
// materialized sequentially and rendered canonically. It consumes snap
// (the index takes over its matrix).
func referenceAtoms(snap *core.Snapshot, segments []bgpstream.Source) ([]byte, replay.Stats, error) {
	ix := core.NewAtomIndex(snap)
	st, err := replay.Run(ix, segments, replay.Options{Workers: 1})
	if err != nil {
		return nil, st, fmt.Errorf("reference replay: %w", err)
	}
	return atomd.RenderAtoms(ix.Materialize(1)), st, nil
}
