package longitudinal

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/bgpstream"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/topology"
)

// trendEras are the six eras of the benchmark's trend sweep.
var trendEras = []topology.Era{
	topology.EraOf(2004, 1), topology.EraOf(2008, 1), topology.EraOf(2012, 1),
	topology.EraOf(2016, 1), topology.EraOf(2020, 1), topology.EraOf(2024, 1),
}

func warningConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.004
	cfg.Workers = 1
	return cfg
}

// peerWarnings counts the peer-attributed warnings — the only ones
// sanitize's abnormal-peer filter reads.
func peerWarnings(ws []bgpstream.Warning) map[bgpstream.Warning]int {
	out := map[bgpstream.Warning]int{}
	for _, w := range ws {
		if w.PeerASN != 0 {
			out[w]++
		}
	}
	return out
}

// archiveRecords reads every record of an archive, keeping copies of
// those whose peer is in scope (nil = all). Every synthesized update record carries
// an AS4 BGP4MP body, whatever its stamped subtype, so the peer AS is
// its first four bytes.
func archiveRecords(t *testing.T, data []byte, scope map[uint32]bool) []mrt.Record {
	t.Helper()
	rd := mrt.NewReader(bytes.NewReader(data))
	var out []mrt.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Body) < 4 {
			t.Fatalf("record body of %d bytes", len(rec.Body))
		}
		if scope != nil && !scope[binary.BigEndian.Uint32(rec.Body)] {
			continue
		}
		rec.Body = bytes.Clone(rec.Body)
		out = append(out, rec)
	}
}

// TestScopedWarningWindow: the abnormal-peer window scoped to
// Infra.WarningPeers is the full window restricted to those peers. In
// every trend era with such a peer (2020 and 2024 must have one), every
// collector's scoped archive holds exactly the full archive's in-scope
// records, byte for byte; in every trend era the peer-attributed
// warnings are the same multiset, and an era with no such peer builds
// no window at all.
func TestScopedWarningWindow(t *testing.T) {
	addPathEras := map[topology.Era]bool{topology.EraOf(2020, 1): true, topology.EraOf(2024, 1): true}
	for _, seed := range []uint64{7, 11} {
		for _, era := range trendEras {
			r := NewEraRun(warningConfig(seed), era)
			peers := r.Infra.WarningPeers()
			full := r.updateSources(OffsetBase, OffsetBase+UpdateHours, nil)
			_, fullWarn, err := metrics.CollectRecords(full, r.updateFilter(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			root := obs.Root("warnings")
			r.Cfg.Trace = root
			scopedWarn, err := r.warnings()
			if err != nil {
				t.Fatal(err)
			}
			built := len(root.Report().Children) > 0

			want, got := peerWarnings(fullWarn), peerWarnings(scopedWarn)
			if len(got) != len(want) {
				t.Errorf("seed %d %v: %d distinct peer warnings scoped, %d full", seed, era, len(got), len(want))
			}
			for w, n := range want {
				if got[w] != n {
					t.Errorf("seed %d %v: %+v seen %d times scoped, %d full", seed, era, w, got[w], n)
				}
			}
			if len(peers) == 0 {
				if addPathEras[era] {
					t.Errorf("seed %d %v: no ADD-PATH peer to compare bytes for", seed, era)
				}
				if built || scopedWarn != nil {
					t.Errorf("seed %d %v: no ADD-PATH peer, yet a window was built", seed, era)
				}
				continue
			}
			if !built {
				t.Errorf("seed %d %v: %d ADD-PATH peers, no window span", seed, era, len(peers))
			}
			if len(want) == 0 {
				t.Errorf("seed %d %v: ADD-PATH peers but no peer-attributed warning", seed, era)
			}
			scoped := r.updateSources(OffsetBase, OffsetBase+UpdateHours, peers)
			if len(scoped) != len(full) {
				t.Fatalf("seed %d %v: %d scoped archives, %d full", seed, era, len(scoped), len(full))
			}
			for i := range full {
				if scoped[i].Collector != full[i].Collector {
					t.Fatalf("seed %d %v: archive %d is %s scoped, %s full", seed, era, i, scoped[i].Collector, full[i].Collector)
				}
				wantRecs := archiveRecords(t, full[i].Data, peers)
				gotRecs := archiveRecords(t, scoped[i].Data, nil)
				if len(gotRecs) != len(wantRecs) {
					t.Errorf("seed %d %v %s: %d scoped records, %d in-scope full", seed, era, full[i].Collector, len(gotRecs), len(wantRecs))
					continue
				}
				for j := range wantRecs {
					g, w := gotRecs[j], wantRecs[j]
					if g.Timestamp != w.Timestamp || g.Type != w.Type || g.Subtype != w.Subtype || !bytes.Equal(g.Body, w.Body) {
						t.Errorf("seed %d %v %s: record %d differs from the full archive's", seed, era, full[i].Collector, j)
						break
					}
				}
			}
		}
	}
}

// BenchmarkUpdateWarnings builds the abnormal-peer window of 2024Q1 —
// the era with the most ADD-PATH peers — scoped to those peers.
func BenchmarkUpdateWarnings(b *testing.B) {
	r := NewEraRun(warningConfig(7), topology.EraOf(2024, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.updateWarnings(); err != nil {
			b.Fatal(err)
		}
	}
}
