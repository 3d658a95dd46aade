// The epoch/RCU query seam: the apply goroutine owns the mutable
// core.AtomIndex and, after each delta batch that changed at least one
// cell, publishes a freshly built core.Partition (canonical numbering,
// shares no storage with the index) behind an atomic pointer. Readers
// load the pointer and index flat arrays — no locks, no allocation,
// never blocked by ingest — and every answer is tagged with the epoch
// it came from, so two point queries can be recognized as
// same-generation or not. A handler loads the pointer once per HTTP
// request or binary frame and answers from that one view, so a reply
// never mixes generations.
package atomd

import "repro/internal/core"

// view is one published generation of the partition.
type view struct {
	epoch uint64
	part  *core.Partition
}

// sameAtom reports whether prefix rows p and q share an atom in this
// generation. Out-of-range rows never panic; they simply share nothing.
func (v *view) sameAtom(p, q int) bool {
	bp := v.part.ByPrefix
	if p < 0 || q < 0 || p >= len(bp) || q >= len(bp) {
		return false
	}
	return bp[p] == bp[q]
}

// memberCount returns the size of prefix row p's atom in this
// generation (0 for out-of-range rows).
func (v *view) memberCount(p int) int {
	bp := v.part.ByPrefix
	if p < 0 || p >= len(bp) {
		return 0
	}
	return int(v.part.Counts[bp[p]])
}

// prefixAtom returns prefix row p's canonical atom ID in this
// generation, or -1 for out-of-range rows.
func (v *view) prefixAtom(p int) int32 {
	bp := v.part.ByPrefix
	if p < 0 || p >= len(bp) {
		return -1
	}
	return bp[p]
}

// SameAtom reports whether prefix rows p and q share an atom in the
// current published generation. Out-of-range rows never panic; they
// simply share nothing.
func (srv *Server) SameAtom(p, q int) bool { return srv.view.Load().sameAtom(p, q) }

// MemberCount returns the size of prefix row p's atom in the current
// published generation (0 for out-of-range rows).
func (srv *Server) MemberCount(p int) int { return srv.view.Load().memberCount(p) }

// PrefixAtom returns prefix row p's canonical atom ID in the current
// published generation, or -1 for out-of-range rows. Canonical IDs are
// the batch ComputeAtoms numbering, so they line up with a Materialize
// taken at the same epoch.
func (srv *Server) PrefixAtom(p int) int32 { return srv.view.Load().prefixAtom(p) }

// Epoch returns the current published generation number. Epoch 0 is
// the bootstrap partition (the RIB snapshot before any ingest); each
// delta batch that changed at least one cell advances it by one.
func (srv *Server) Epoch() uint64 {
	return srv.view.Load().epoch
}

// AtomCount returns the number of atoms in the current published
// generation.
func (srv *Server) AtomCount() int {
	return len(srv.view.Load().part.Counts)
}

// PrefixCount returns the size of the serving universe (fixed at
// bootstrap: the snapshot's admitted prefix rows).
func (srv *Server) PrefixCount() int {
	return len(srv.view.Load().part.ByPrefix)
}
