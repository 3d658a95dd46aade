package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/mrt"
	"repro/internal/routing"
	"repro/internal/topology"
)

// packedView renders packed messages for comparison.
func packedView(msgs []message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = fmt.Sprintf("t=%v peer=%d withdraw=%v path=%v prefixes=%v", m.t, m.peer.ASN, m.withdraw, m.path, m.prefixes)
	}
	return out
}

// buildSiblings queues one refresh of each of two sibling units (same
// path, same refresh time) at every peer, in peer order, as
// emitRefreshes does, and returns the packed messages.
func buildSiblings(cfg *UpdateConfig, peers []*Peer) []message {
	b := newMsgBuilder(&topology.Graph{}, cfg)
	path := aspath.Seq{64500, 64510, 64520}
	const t = 10.25
	units := [][]netip.Prefix{
		{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")},
		{netip.MustParsePrefix("10.0.2.0/24")},
	}
	for u, prefixes := range units {
		for _, p := range peers {
			b.unit(u, t, p, path, prefixes)
		}
	}
	return packMessages(b.msgs)
}

// TestScopedPackingKeepsSeals: in the unscoped stream an out-of-scope
// peer's refresh sits between the in-scope peer's refreshes of two
// sibling units, so they stay two UPDATEs. The scoped build never
// materializes the out-of-scope message, yet packs exactly as the
// unscoped stream filtered to the scope: the seal keeps them apart.
func TestScopedPackingKeepsSeals(t *testing.T) {
	in := &Peer{ASN: 64500, FullFeed: true}
	out := &Peer{ASN: 64501, FullFeed: true}
	base := UpdateConfig{FromT: 10, ToT: 10.5, FullMessageProb: 1}

	var want []message
	for _, m := range buildSiblings(&base, []*Peer{in, out}) {
		if m.peer == in {
			want = append(want, m)
		}
	}
	if len(want) != 2 {
		t.Fatalf("unscoped stream packs the in-scope peer into %d messages, want 2", len(want))
	}
	// Without the out-of-scope peer the two refreshes would pack into
	// one, so only the seal can keep the scoped build equal.
	if alone := buildSiblings(&base, []*Peer{in}); len(alone) != 1 {
		t.Fatalf("the in-scope peer alone packs into %d messages, want 1", len(alone))
	}

	scoped := base
	scoped.Peers = map[uint32]bool{in.ASN: true}
	got := buildSiblings(&scoped, []*Peer{in, out})
	if g, w := packedView(got), packedView(want); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("scoped packing:\n%s\nwant the unscoped packing filtered:\n%s", g, w)
	}
}

// peerRecords decodes an update archive, keeping the records of peers
// in scope. A synthesized update record's body starts with its AS4
// peer AS, whatever its stamped subtype.
func peerRecords(t *testing.T, data []byte, scope map[uint32]bool) []mrt.Record {
	t.Helper()
	rd := mrt.NewBytesReader(data)
	var out []mrt.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if scope[binary.BigEndian.Uint32(rec.Body)] {
			out = append(out, rec)
		}
	}
}

// TestScopedBuildUpdatesMatchesFiltered: for every scope — alternate
// peers, a single peer, the ADD-PATH peers — every collector's scoped
// archive holds exactly the unscoped archive's in-scope records, byte
// for byte.
func TestScopedBuildUpdatesMatchesFiltered(t *testing.T) {
	for _, era := range []topology.Era{topology.EraOf(2012, 1), topology.EraOf(2024, 1)} {
		g := testGraph(t, era)
		in := BuildInfra(g, Config{Seed: 3, Artifacts: true})
		cfg := UpdateConfig{
			Model: routing.ChurnModel{Seed: 9, UnitEventRate: 0.6, VPEventRate: 0.3, TransitFlipShare: 0.4,
				PrefixMobileShare: 0.1, PrefixBaseMoveRate: 0.01, RefreshRate: 3},
			FromT:           10,
			ToT:             10 + 4.0/24.0,
			BaseTime:        EpochOf(g.Era),
			FullMessageProb: 0.8,
			FlapRate:        0.1,
		}
		full := BuildUpdates(g, in, cfg)
		vps, _ := updateVPs(in)
		scopes := map[string]map[uint32]bool{
			"even": {}, "odd": {},
			"first": {vps[0]: true}, "middle": {vps[len(vps)/2]: true},
			"add-path": in.WarningPeers(),
		}
		for i, vp := range vps {
			scopes[[]string{"even", "odd"}[i%2]][vp] = true
		}
		for name, scope := range scopes {
			if len(scope) == 0 {
				continue
			}
			cfg.Peers = scope
			scoped := BuildUpdates(g, in, cfg)
			total := 0
			for collector, data := range full {
				want := peerRecords(t, data, scope)
				got := peerRecords(t, scoped[collector], scope)
				total += len(got)
				if len(got) != len(want) {
					t.Errorf("%v %s scope %s: %d scoped records, %d in-scope unscoped", era, name, collector, len(got), len(want))
					continue
				}
				for j := range want {
					g, w := got[j], want[j]
					if g.Timestamp != w.Timestamp || g.Subtype != w.Subtype || !bytes.Equal(g.Body, w.Body) {
						t.Errorf("%v %s scope %s: record %d differs from the unscoped archive's", era, name, collector, j)
						break
					}
				}
			}
			if total == 0 {
				t.Errorf("%v %s scope: no in-scope record to compare", era, name)
			}
		}
	}
}
