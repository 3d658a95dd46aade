package topology

import (
	"slices"
	"testing"
)

// labelExports is the label-addressed form of ExportHash.Exports: every
// draw hashes (seed, tag, ASN, unit ID, neighbor) from scratch.
func labelExports(g *Graph, from *AS, u *PolicyGroup, to uint32) (ok bool, prepend int) {
	if from.Selectivity > 0 && slices.Contains(from.Peers, to) {
		if unit(g.Seed, 0x5e1ec, uint64(from.ASN), uint64(u.ID), uint64(to)) < from.Selectivity {
			return false, 0
		}
	}
	if from.PrependRate > 0 {
		if unit(g.Seed, 0x93e9d, uint64(from.ASN), uint64(u.ID), uint64(to)) < from.PrependRate {
			prepend = 1 + pick(2, g.Seed, 0x93e9e, uint64(from.ASN), uint64(u.ID), uint64(to))
		}
	}
	return true, prepend
}

// TestStagedExportHash pins the staged export hash to the label hash:
// for every (AS, unit, neighbor) the staged selectivity, prepend and
// prepend-count draws equal unit/pick over (seed, tag, ASN, unit ID,
// neighbor), and so does the export decision.
func TestStagedExportHash(t *testing.T) {
	p := DefaultParams(7)
	p.Scale = 0.001
	g := Generate(p, EraOf(2024, 1))
	checked, exporters := 0, 0
	for i, a := range g.ASes {
		if a.Selectivity > 0 || a.PrependRate > 0 {
			exporters++
		}
		for _, u := range g.Groups {
			h := g.Hash[i].ForUnit(u.ID)
			for _, nbrs := range [][]uint32{a.Providers, a.Peers, a.Customers} {
				for _, to := range nbrs {
					labels := func(tag uint64) []uint64 {
						return []uint64{g.Seed, tag, uint64(a.ASN), uint64(u.ID), uint64(to)}
					}
					if got, want := toUnit(mix64(h.sel^uint64(to))), unit(labels(0x5e1ec)...); got != want {
						t.Fatalf("AS %d unit %d to %d: selectivity draw %v, want %v", a.ASN, u.ID, to, got, want)
					}
					if got, want := toUnit(mix64(h.prep^uint64(to))), unit(labels(0x93e9d)...); got != want {
						t.Fatalf("AS %d unit %d to %d: prepend draw %v, want %v", a.ASN, u.ID, to, got, want)
					}
					if got, want := int(mix64(h.pick^uint64(to))%2), pick(2, labels(0x93e9e)...); got != want {
						t.Fatalf("AS %d unit %d to %d: pick draw %d, want %d", a.ASN, u.ID, to, got, want)
					}
					gotOK, gotPrep := h.Exports(a, to, slices.Contains(a.Peers, to))
					wantOK, wantPrep := labelExports(g, a, u, to)
					if gotOK != wantOK || gotPrep != wantPrep {
						t.Fatalf("AS %d unit %d to %d: Exports = (%v, %d), want (%v, %d)",
							a.ASN, u.ID, to, gotOK, gotPrep, wantOK, wantPrep)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d (AS, unit, neighbor) draws over %d ASes (%d exporting), %d units", checked, len(g.ASes), exporters, len(g.Groups))
	if checked == 0 || exporters == 0 {
		t.Fatalf("checked %d draws over %d exporting ASes; the graph exercises nothing", checked, exporters)
	}
}

// TestAdjacencyIndex checks the graph's ASN index and position-based
// adjacency against the ASN lists they are built from.
func TestAdjacencyIndex(t *testing.T) {
	a := &AS{ASN: 30, Providers: []uint32{20, 999}, Peers: []uint32{10}}
	b := &AS{ASN: 20, Peers: []uint32{10}}
	c := &AS{ASN: 10, Peers: []uint32{20, 30}}
	g := NewGraph(EraOf(2014, 1), 1, []*AS{a, b, c}, nil)
	for i, x := range g.ASes {
		if g.Index[x.ASN] != int32(i) || g.AS(x.ASN) != x {
			t.Fatalf("AS %d: index %d, want %d", x.ASN, g.Index[x.ASN], i)
		}
		var provs, peers []uint32
		for _, j := range g.ProvidersOf(int32(i)) {
			provs = append(provs, g.ASes[j].ASN)
		}
		for _, j := range g.PeersOf(int32(i)) {
			peers = append(peers, g.ASes[j].ASN)
		}
		wantProvs := slices.DeleteFunc(slices.Clone(x.Providers), func(asn uint32) bool { return g.AS(asn) == nil })
		if !slices.Equal(provs, wantProvs) || !slices.Equal(peers, x.Peers) {
			t.Errorf("AS %d: providers %v peers %v, want %v %v", x.ASN, provs, peers, wantProvs, x.Peers)
		}
	}
	if g.AS(999) != nil {
		t.Error("unknown ASN resolved")
	}
}
