package metrics

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/mrt"
)

// TestCollectRecordsMatchesArchive pins every update record against the
// messages it came from: timestamp, collector, peer and prefix set, in
// archive order. Each message differs from the one before it in all
// four, so a collector that reads a batch element after the next
// NextBatch (whose record is decoded into the same buffer) reports the
// next message's fields and fails here. Paths repeat across messages,
// so most announcements are served from the stream's memo.
func TestCollectRecordsMatchesArchive(t *testing.T) {
	var want []UpdateRecord
	archive := func(collector string, base uint32) bgpstream.Source {
		var buf bytes.Buffer
		w := mrt.NewWriter(&buf)
		write := func(rec mrt.Record) {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		// A state change and a RIB record: not update records.
		sc := &mrt.StateChange{PeerAS: 64999, LocalAS: 12654, AS4: true,
			PeerAddr: netip.MustParseAddr("192.0.2.9"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
			OldState: mrt.StateEstablished, NewState: mrt.StateIdle}
		body, err := sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		write(mrt.Record{Timestamp: base, Type: mrt.TypeBGP4MP, Subtype: sc.Subtype(), Body: body})
		for i := 0; i < 12; i++ {
			ts, peer := base+uint32(10*i+1), uint32(65001+i%4)
			var pfxs []netip.Prefix
			for k := 0; k <= i%3; k++ {
				pfxs = append(pfxs, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(base), byte(i), byte(k * 64)}), 26))
			}
			var u *bgp.Update
			switch {
			case i%5 == 4:
				u, err = bgp.NewWithdrawal(pfxs)
			case i%4 == 3:
				p6 := netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(base), byte(i)}), 48)
				pfxs = []netip.Prefix{p6}
				u, err = bgp.NewAnnouncement(aspath.Seq{peer, 174, 65100}, netip.MustParseAddr("192.0.2.1"), pfxs)
			default:
				// Two paths alternate, so the attribute blocks repeat.
				u, err = bgp.NewAnnouncement(aspath.Seq{peer, 174, uint32(65100 + i%2)}, netip.MustParseAddr("192.0.2.1"), pfxs)
				if i%3 == 2 {
					// A duplicate prefix in one message collapses.
					u.Announced = append(u.Announced, u.Announced[0])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := u.Marshal(bgp.Options{AS4: true})
			if err != nil {
				t.Fatal(err)
			}
			msg := &mrt.Message{PeerAS: peer, LocalAS: 12654, AS4: true, Data: data,
				PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1")}
			if body, err = msg.Marshal(); err != nil {
				t.Fatal(err)
			}
			write(mrt.Record{Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: msg.Subtype(), Body: body})
			want = append(want, UpdateRecord{Timestamp: ts, Collector: collector, PeerASN: peer, Prefixes: pfxs})
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return bgpstream.BytesSource(collector, buf.Bytes(), bgp.Options{})
	}
	sources := []bgpstream.Source{archive("rrc00", 1000), archive("route-views2", 2000)}

	got, warnings, err := CollectRecords(sources, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings: %v", warnings)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("update records diverge from the archive:\n  got:  %+v\n  want: %+v", got, want)
	}
}
