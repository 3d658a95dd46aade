// Package metrics implements the paper's four analyses over computed
// atoms: correlation of atom structure with BGP update records (§3.3),
// formation distance with all three prepending-handling methods (§3.4),
// stability via complete-atom match and maximized-prefix match (§3.5),
// and atom-split detection with observer counting (§4.4.1).
package metrics

import (
	"io"
	"net/netip"

	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prefixset"
)

// UpdateRecord is the prefix set of one BGP UPDATE message.
type UpdateRecord struct {
	Timestamp uint32
	Collector string
	PeerASN   uint32
	Prefixes  []netip.Prefix
}

// CollectRecords drains update sources into per-message prefix sets
// (announcements and withdrawals together, deduplicated). A non-nil
// reg receives the stream's decode counters plus metrics.update_records
// and a metrics.update_record_size histogram; a non-nil parent receives
// a child span with source/record cardinalities. nil reg and parent
// skip telemetry entirely.
func CollectRecords(sources []bgpstream.Source, filter *bgpstream.Filter, reg *obs.Registry, parent *obs.Span) ([]UpdateRecord, []bgpstream.Warning, error) {
	if reg == nil && parent == nil {
		return collectRecords(sources, filter, nil)
	}
	sp := parent.Child("metrics.collect_records")
	out, warnings, err := collectRecords(sources, filter, reg)
	if reg != nil {
		reg.Counter("metrics.update_records").Add(int64(len(out)))
		h := reg.Histogram("metrics.update_record_size")
		for i := range out {
			h.Observe(int64(len(out[i].Prefixes)))
		}
	}
	sp.SetAttr("sources", len(sources))
	sp.SetAttr("records", len(out))
	sp.SetAttr("warnings", len(warnings))
	sp.End()
	return out, warnings, err
}

func collectRecords(sources []bgpstream.Source, filter *bgpstream.Filter, reg *obs.Registry) ([]UpdateRecord, []bgpstream.Warning, error) {
	s := bgpstream.NewStream(filter, sources...)
	s.SetMetrics(reg)

	// Elements of one message arrive contiguously with a strictly
	// increasing MsgIndex, so grouping is a streaming comparison against
	// the previous index — no map, no sort. The current record's
	// prefixes accumulate in scratch (deduplicated linearly; update
	// records are small) and flush into a chunked arena, so the retained
	// slices cost one allocation per ~4096 prefixes instead of one per
	// record.
	var out []UpdateRecord
	var arena []netip.Prefix
	alloc := func(ps []netip.Prefix) []netip.Prefix {
		if len(ps) == 0 {
			return nil
		}
		if len(arena)+len(ps) > cap(arena) {
			n := 4096
			if len(ps) > n {
				n = len(ps)
			}
			arena = make([]netip.Prefix, 0, n)
		}
		start := len(arena)
		arena = append(arena, ps...)
		return arena[start : start+len(ps) : start+len(ps)]
	}
	scratch := make([]netip.Prefix, 0, 256)
	flush := func() {
		if len(out) > 0 {
			out[len(out)-1].Prefixes = alloc(scratch)
		}
		scratch = scratch[:0]
	}
	curMsg := -1
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		for i := range batch {
			e := &batch[i]
			if e.Type != bgpstream.ElemAnnounce && e.Type != bgpstream.ElemWithdraw {
				continue
			}
			if e.MsgIndex != curMsg {
				flush()
				curMsg = e.MsgIndex
				out = append(out, UpdateRecord{Timestamp: e.Timestamp, Collector: e.Collector, PeerASN: e.PeerASN})
			}
			p := prefixset.Canonical(e.Prefix)
			if !p.IsValid() {
				continue
			}
			dup := false
			for _, q := range scratch {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				scratch = append(scratch, p)
			}
		}
	}
	flush()
	return out, s.Warnings(), nil
}

// Ratio accumulates the full/partial counts behind one Pr_full(k) point.
type Ratio struct {
	All, Partial int
}

// Pr returns N_all / (N_all + N_partial), or -1 with no observations.
func (r Ratio) Pr() float64 {
	n := r.All + r.Partial
	if n == 0 {
		return -1
	}
	return float64(r.All) / float64(n)
}

// UpdateCorrelation is the Fig 3/10/15 dataset: for each entity size k,
// how often an entity with ≥1 prefix in an update appeared in full.
type UpdateCorrelation struct {
	MaxK int
	// Indexed 1..MaxK (index 0 unused).
	Atom                []Ratio
	AS                  []Ratio
	ASMultiAtom         []Ratio // ASes with ≥1 atom of size >1
	ASSinglePrefixAtoms []Ratio // ASes whose atoms are all single-prefix
	Records             int
}

// CorrelateUpdates computes the likelihood of atoms and ASes being seen
// in full within single update records (§3.3's formula). A non-nil
// parent receives a child span with atom/record counts; nil skips
// tracing entirely.
func CorrelateUpdates(as *core.AtomSet, records []UpdateRecord, maxK int, parent *obs.Span) *UpdateCorrelation {
	if parent == nil {
		return correlateUpdates(as, records, maxK)
	}
	sp := parent.Child("metrics.correlate_updates")
	uc := correlateUpdates(as, records, maxK)
	sp.SetAttr("atoms", len(as.Atoms))
	sp.SetAttr("records", len(records))
	sp.SetAttr("max_k", maxK)
	sp.End()
	return uc
}

func correlateUpdates(as *core.AtomSet, records []UpdateRecord, maxK int) *UpdateCorrelation {
	uc := &UpdateCorrelation{
		MaxK:                maxK,
		Atom:                make([]Ratio, maxK+1),
		AS:                  make([]Ratio, maxK+1),
		ASMultiAtom:         make([]Ratio, maxK+1),
		ASSinglePrefixAtoms: make([]Ratio, maxK+1),
		Records:             len(records),
	}

	// Prefix value → atom ID, and per-AS prefix grouping.
	snap := as.Snap
	atomOf := make(map[netip.Prefix]int, len(snap.Prefixes))
	for p, pfx := range snap.Prefixes {
		atomOf[pfx] = as.ByPrefix[p]
	}
	type asInfo struct {
		id       int
		size     int
		allOne   bool // all atoms single-prefix
		hasMulti bool // ≥1 atom with >1 prefix
	}
	asIndex := map[uint32]*asInfo{}
	asOfPrefix := make([]int, len(snap.Prefixes)) // prefix idx → AS dense id
	var asList []*asInfo
	for i := range as.Atoms {
		a := &as.Atoms[i]
		if a.Origin == 0 {
			continue
		}
		info := asIndex[a.Origin]
		if info == nil {
			info = &asInfo{id: len(asList), allOne: true}
			asIndex[a.Origin] = info
			asList = append(asList, info)
		}
		info.size += a.Size()
		if a.Size() > 1 {
			info.hasMulti = true
			info.allOne = false
		}
		for _, p := range a.Prefixes {
			asOfPrefix[p] = info.id
		}
	}

	atomHits := make(map[int]int, 64)
	asHits := make(map[int]int, 64)
	pfxIdx := make(map[netip.Prefix]int, len(snap.Prefixes))
	for p, pfx := range snap.Prefixes {
		pfxIdx[pfx] = p
	}

	for _, rec := range records {
		clear(atomHits)
		clear(asHits)
		for _, pfx := range rec.Prefixes {
			aid, ok := atomOf[pfx]
			if !ok {
				continue
			}
			atomHits[aid]++
			p := pfxIdx[pfx]
			if as.Atoms[aid].Origin != 0 {
				asHits[asOfPrefix[p]]++
			}
		}
		for aid, hits := range atomHits {
			size := as.Atoms[aid].Size()
			if size < 1 || size > maxK {
				continue
			}
			if hits >= size {
				uc.Atom[size].All++
			} else {
				uc.Atom[size].Partial++
			}
		}
		for did, hits := range asHits {
			info := asList[did]
			if info.size < 1 || info.size > maxK {
				continue
			}
			full := hits >= info.size
			tally(&uc.AS[info.size], full)
			if info.hasMulti {
				tally(&uc.ASMultiAtom[info.size], full)
			}
			if info.allOne && info.size > 1 {
				tally(&uc.ASSinglePrefixAtoms[info.size], full)
			}
		}
	}
	return uc
}

func tally(r *Ratio, full bool) {
	if full {
		r.All++
	} else {
		r.Partial++
	}
}
