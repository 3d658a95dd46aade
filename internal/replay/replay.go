// Package replay drives a core.AtomIndex from a BGP update stream: it
// decodes update archives through bgpstream, maps each announce/withdraw
// onto a (prefix row, VP column) cell of the index's snapshot, and
// applies the deltas in the stream's serve order. AtomIndex is mutated
// only from this single goroutine, so the resulting partition is a pure
// function of the sources, and the differential tests pin it against
// batch recompute at every Materialize worker count, including over
// faultgen-damaged archives.
//
// Elements that cannot land in the matrix are counted, never silently
// dropped: prefixes outside the snapshot's admitted set, peers that are
// not vantage points, state messages, and announce paths that would not
// flatten (AS_SET with multiple members, confederation segments).
package replay

import (
	"io"

	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures a replay run. The zero value replays everything
// sequentially with no telemetry.
type Options struct {
	// Workers is ignored: the stream decodes a record at a time and
	// deltas apply in serve order. The field remains only because the
	// benchmark program sets it.
	Workers int
	// Filter narrows the element stream before replay.
	Filter *bgpstream.Filter
	// Metrics receives replay.* counters (and the stream's bgpstream.*
	// counters) when non-nil.
	Metrics *obs.Registry
	// Span, when non-nil, gets a "replay" child annotated with the run's
	// totals.
	Span *obs.Span
	// Progress, when non-nil, emits a replay_batch step per served batch
	// with the element count as its row count.
	Progress *obs.Progress
}

// Stats describes what a replay run did with the stream.
type Stats struct {
	// Elems is every element served by the stream (post-filter).
	Elems int
	// Updates were mapped to a cell: Applied re-bucketed a row, NoOps
	// re-announced the route already in the cell.
	Updates int
	Applied int
	NoOps   int
	// Created / Retired count atom births and deaths over the run.
	Created int
	Retired int
	// Skip accounting: elements that had no cell to land in.
	SkippedPrefix   int // prefix not in the snapshot's admitted set
	SkippedVP       int // peer (collector, ASN) is not a vantage point
	SkippedUnusable int // announce whose path would not flatten
	SkippedType     int // state (or other non-route) elements
	// Stream health, copied from the underlying bgpstream.Stream.
	Warnings    int
	Quarantined []string
}

// Run replays update sources into the index. The index's snapshot
// defines the replay universe: its Prefixes rows, its VPs columns, and
// its intern table the path-ID space (the stream interns into the same
// table, so applied IDs are directly comparable with resident ones).
func Run(ix *core.AtomIndex, sources []bgpstream.Source, opts Options) (Stats, error) {
	snap := ix.Snapshot()
	sp := opts.Span.Child("replay")
	defer sp.End()

	mapper := NewMapper(snap)
	st := bgpstream.NewStream(opts.Filter, sources...)
	st.SetIntern(snap.Paths)
	if opts.Metrics != nil {
		st.SetMetrics(opts.Metrics)
	}

	var (
		stats     Stats
		elemsC    = counter(opts.Metrics, "replay.elems")
		appliedC  = counter(opts.Metrics, "replay.applied")
		noopC     = counter(opts.Metrics, "replay.noops")
		createdC  = counter(opts.Metrics, "replay.atoms_created")
		retiredC  = counter(opts.Metrics, "replay.atoms_retired")
		skipPfxC  = counter(opts.Metrics, "replay.skipped", "reason", "prefix")
		skipVPC   = counter(opts.Metrics, "replay.skipped", "reason", "vp")
		skipPathC = counter(opts.Metrics, "replay.skipped", "reason", "unusable-path")
		skipTypeC = counter(opts.Metrics, "replay.skipped", "reason", "type")
	)
	opts.Progress.Begin("replay", 0)
	for {
		batch, err := st.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		for i := range batch {
			e := &batch[i]
			stats.Elems++
			elemsC.Inc()
			p, v, id, reason := mapper.Map(e)
			switch reason {
			case SkipUnusable:
				stats.SkippedUnusable++
				skipPathC.Inc()
				continue
			case SkipType:
				stats.SkippedType++
				skipTypeC.Inc()
				continue
			case SkipPrefix:
				stats.SkippedPrefix++
				skipPfxC.Inc()
				continue
			case SkipVP:
				stats.SkippedVP++
				skipVPC.Inc()
				continue
			}
			d := ix.ApplyUpdate(p, v, id)
			stats.Updates++
			if d.NoOp {
				stats.NoOps++
				noopC.Inc()
				continue
			}
			stats.Applied++
			appliedC.Inc()
			if d.Created {
				stats.Created++
				createdC.Inc()
			}
			if d.Retired {
				stats.Retired++
				retiredC.Inc()
			}
		}
		opts.Progress.Step("replay_batch", "", int64(len(batch)))
	}
	stats.Warnings = len(st.Warnings())
	stats.Quarantined = st.Quarantined()

	sp.SetAttr("elems", stats.Elems)
	sp.SetAttr("applied", stats.Applied)
	sp.SetAttr("noops", stats.NoOps)
	sp.SetAttr("atoms_created", stats.Created)
	sp.SetAttr("atoms_retired", stats.Retired)
	sp.SetAttr("skipped_prefix", stats.SkippedPrefix)
	sp.SetAttr("skipped_vp", stats.SkippedVP)
	sp.SetAttr("skipped_unusable", stats.SkippedUnusable)
	sp.SetAttr("warnings", stats.Warnings)
	opts.Progress.End("replay_done")
	return stats, nil
}

// counter returns the named counter, or a nil counter (whose methods
// are no-ops) when there is no registry.
func counter(r *obs.Registry, name string, labels ...string) *obs.Counter {
	if r == nil {
		return nil
	}
	return r.Counter(name, labels...)
}
