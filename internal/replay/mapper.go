// Mapper factors the element→cell resolution out of Run so other
// drivers of a resident AtomIndex — atomd's live ingest sessions — map
// stream elements exactly the way batch replay does. Any divergence
// here would break the daemon-vs-batch differential, so there is one
// copy of the logic and both paths share it.
package replay

import (
	"net/netip"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/prefixset"
)

// SkipReason classifies why an element had no matrix cell to land in.
// SkipNone means the element mapped.
type SkipReason uint8

const (
	SkipNone     SkipReason = iota
	SkipUnusable            // announce whose path would not flatten
	SkipType                // state (or other non-route) element
	SkipPrefix              // prefix not in the snapshot's admitted set
	SkipVP                  // peer (collector, ASN) is not a vantage point
)

// Mapper resolves stream elements onto (prefix row, VP column, path ID)
// cells of one snapshot's matrix. The coordinate maps are built once
// and only read afterwards, so a single Mapper may serve concurrent
// streams (atomd runs one decode goroutine per ingest session against
// a shared Mapper).
type Mapper struct {
	prefixRow map[netip.Prefix]int
	vpCol     map[core.VP]int
}

// NewMapper indexes the snapshot's coordinate space. Prefixes are keyed
// canonically, as the sanitize pipeline stores them.
func NewMapper(snap *core.Snapshot) *Mapper {
	m := &Mapper{
		prefixRow: make(map[netip.Prefix]int, len(snap.Prefixes)),
		vpCol:     make(map[core.VP]int, len(snap.VPs)),
	}
	for i, p := range snap.Prefixes {
		m.prefixRow[prefixset.Canonical(p)] = i
	}
	for i, vp := range snap.VPs {
		m.vpCol[vp] = i
	}
	return m
}

// PrefixRow returns the matrix row of a prefix (canonicalized first),
// or ok=false when the prefix is outside the admitted set.
func (m *Mapper) PrefixRow(p netip.Prefix) (int, bool) {
	row, ok := m.prefixRow[prefixset.Canonical(p)]
	return row, ok
}

// Map resolves one element to its cell. A SkipNone reason means (p, v,
// id) are valid: announces and RIB entries carry their interned path,
// withdraws the empty path. Any other reason leaves the coordinates
// meaningless.
func (m *Mapper) Map(e *bgpstream.Elem) (p, v int, id aspath.ID, reason SkipReason) {
	switch e.Type {
	case bgpstream.ElemAnnounce, bgpstream.ElemRIB:
		if e.PathUnusable {
			return 0, 0, 0, SkipUnusable
		}
		id = e.InternedPath
	case bgpstream.ElemWithdraw:
		id = aspath.Empty
	default:
		return 0, 0, 0, SkipType
	}
	p, ok := m.prefixRow[prefixset.Canonical(e.Prefix)]
	if !ok {
		return 0, 0, 0, SkipPrefix
	}
	v, ok = m.vpCol[core.VP{Collector: e.Collector, ASN: e.PeerASN}]
	if !ok {
		return 0, 0, 0, SkipVP
	}
	return p, v, id, SkipNone
}
