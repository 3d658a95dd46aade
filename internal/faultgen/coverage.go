package faultgen

import (
	"net/netip"

	"repro/internal/mrt"
)

// CoveredPrefixes decodes the clean archive's records inside the
// fault's ground-truth coverage range and returns the prefixes whose
// snapshot cells the fault may legitimately have damaged. A covered
// PEER_INDEX_TABLE record poisons the peer mapping of every record in
// the archive, reported as all=true. Only TABLE_DUMP_V2 records carry
// prefixes; BGP4MP records in range contribute nothing (they feed
// warnings, not cells).
func CoveredPrefixes(f Fault, clean []byte) (pfxs []netip.Prefix, all bool) {
	recs := indexRecords(clean)
	lo, hi := f.Covered(len(recs))
	for i := lo; i < hi && i < len(recs); i++ {
		rs := recs[i]
		if rs.typ != mrt.TypeTableDumpV2 {
			continue
		}
		if rs.subtype == mrt.SubPeerIndexTable {
			return nil, true
		}
		rib, err := mrt.ParseRIB(rs.subtype, clean[rs.off+12:rs.end])
		if err != nil {
			continue
		}
		pfxs = append(pfxs, rib.Prefix)
	}
	return pfxs, false
}

// DamagedPrefixes decodes the damaged archive's records inside the
// fault's damaged-side coverage range (Fault.CoveredDamaged) and
// returns the prefixes that fault-created content may claim — e.g. a
// bit flip in NLRI bytes re-aiming a record at a different prefix.
// For framing-preserving classes this walk is exactly the walk the
// stream performs, so the set is exact; after a broken boundary it is
// best-effort. A PEER_INDEX_TABLE inside the range reports all=true.
func DamagedPrefixes(f Fault, damaged []byte) (pfxs []netip.Prefix, all bool) {
	recs := indexRecords(damaged)
	lo, hi := f.CoveredDamaged(len(recs))
	for i := lo; i < hi && i < len(recs); i++ {
		rs := recs[i]
		if rs.typ != mrt.TypeTableDumpV2 {
			continue
		}
		if rs.subtype == mrt.SubPeerIndexTable {
			return nil, true
		}
		rib, err := mrt.ParseRIB(rs.subtype, damaged[rs.off+12:rs.end])
		if err != nil {
			continue
		}
		pfxs = append(pfxs, rib.Prefix)
	}
	return pfxs, false
}

// ArchivePrefixes decodes every RIB record of a clean archive — the
// full prefix universe a damaged copy could legitimately have seen. A
// prefix decoded from a damaged archive but absent from this set is a
// corruption-created phantom.
func ArchivePrefixes(clean []byte) []netip.Prefix {
	var out []netip.Prefix
	for _, rs := range indexRecords(clean) {
		if rs.typ != mrt.TypeTableDumpV2 || rs.subtype == mrt.SubPeerIndexTable {
			continue
		}
		if rib, err := mrt.ParseRIB(rs.subtype, clean[rs.off+12:rs.end]); err == nil {
			out = append(out, rib.Prefix)
		}
	}
	return out
}
