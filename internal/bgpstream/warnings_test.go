package bgpstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/obs"
)

// writeRecord appends one MRT record to buf, failing the test on error.
func writeRecord(t testing.TB, buf *bytes.Buffer, rec mrt.Record) {
	t.Helper()
	w := mrt.NewWriter(buf)
	if err := w.WriteRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// marshalPIT builds a peer index table body with n peers.
func marshalPIT(t testing.TB, n int) []byte {
	t.Helper()
	pit := &mrt.PeerIndexTable{CollectorID: netip.MustParseAddr("198.51.100.1")}
	for i := 0; i < n; i++ {
		pit.Peers = append(pit.Peers, mrt.Peer{
			BGPID: netip.MustParseAddr("10.0.0.1"),
			Addr:  netip.MustParseAddr("192.0.2.10"),
			ASN:   uint32(3356 + i),
		})
	}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// marshalMessage wraps data in a BGP4MP MESSAGE_AS4 body.
func marshalMessage(t *testing.T, data []byte) []byte {
	t.Helper()
	msg := &mrt.Message{PeerAS: 65001, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: true}
	body, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWarningCodes feeds the stream one malformed record per subtest and
// asserts that exactly one warning with the expected code is recorded —
// once per offending record, not per retry or per byte — and that the
// matching obs counters move in lockstep:
//
//	bgpstream.warnings{reason=<code>,subtype=<N>}  +1
//	bgpstream.records_skipped{reason=<code>}       +1 (except addpath-suspect)
func TestWarningCodes(t *testing.T) {
	cases := []struct {
		code    string
		subtype uint16
		skipped bool // code increments records_skipped
		build   func(t *testing.T) []byte
	}{
		{WarnRecordError, 0, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
			return buf.Bytes()[:buf.Len()-3] // cut mid-record
		}},
		{WarnPeerIndexTable, mrt.SubPeerIndexTable, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: []byte{1, 2}})
			return buf.Bytes()
		}},
		{WarnRIBRecord, mrt.SubRIBIPv4Unicast, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubRIBIPv4Unicast, Body: []byte{1}})
			return buf.Bytes()
		}},
		{WarnPeerIndexRange, mrt.SubRIBIPv4Unicast, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 0)})
			attrs, err := bgp.MarshalAttributes([]bgp.Attr{bgp.Origin(0)}, bgp.Options{AS4: true})
			if err != nil {
				t.Fatal(err)
			}
			rib := &mrt.RIB{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
				Entries: []mrt.RIBEntry{{PeerIndex: 5, Attrs: attrs}}}
			body, err := rib.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: body})
			return buf.Bytes()
		}},
		{WarnRIBAttrs, mrt.SubRIBIPv4Unicast, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
			rib := &mrt.RIB{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
				Entries: []mrt.RIBEntry{{PeerIndex: 0, Attrs: []byte{0xff}}}} // flags with no type octet
			body, err := rib.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: body})
			return buf.Bytes()
		}},
		{WarnUnknownTD2Subtype, 99, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: 99, Body: []byte{1, 2, 3}})
			return buf.Bytes()
		}},
		{WarnStateChange, mrt.SubStateChange, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: mrt.SubStateChange, Body: []byte{1, 2}})
			return buf.Bytes()
		}},
		{WarnBGP4MPMessage, mrt.SubMessage, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessage, Body: []byte{1, 2}})
			return buf.Bytes()
		}},
		{WarnUnknownBGP4MP, 13, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: 13, Body: []byte{1, 2, 3}})
			return buf.Bytes()
		}},
		{WarnUnknownMRTType, 0, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: 99, Subtype: 0, Body: []byte{1}})
			return buf.Bytes()
		}},
		{WarnBGPHeader, mrt.SubMessageAS4, true, func(t *testing.T) []byte {
			var buf bytes.Buffer
			// BGP payload shorter than the 19-byte header.
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessageAS4, Body: marshalMessage(t, []byte{1, 2, 3})})
			return buf.Bytes()
		}},
		{WarnUpdateParse, mrt.SubMessageAS4, true, func(t *testing.T) []byte {
			// Valid header claiming UPDATE, body truncated: withdrawn
			// length says 5 bytes but none follow.
			data := make([]byte, 21)
			for i := 0; i < 16; i++ {
				data[i] = 0xff
			}
			binary.BigEndian.PutUint16(data[16:18], 21)
			data[18] = 2 // UPDATE
			data[19], data[20] = 0, 5
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessageAS4, Body: marshalMessage(t, data)})
			return buf.Bytes()
		}},
		{WarnAddPathSuspect, mrt.SubMessageAS4, false, func(t *testing.T) []byte {
			// Two /0 announcements in one message — the phantom-default
			// signature of ADD-PATH NLRI read as plain NLRI (§A8.3.1).
			upd, err := bgp.NewAnnouncement(aspath.Seq{65001}, netip.MustParseAddr("192.0.2.1"),
				[]netip.Prefix{netip.MustParsePrefix("0.0.0.0/0"), netip.MustParsePrefix("0.0.0.0/0")})
			if err != nil {
				t.Fatal(err)
			}
			data, err := upd.Marshal(bgp.Options{AS4: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessageAS4, Body: marshalMessage(t, data)})
			return buf.Bytes()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := NewStream(nil, BytesSource("rrc00", tc.build(t), bgp.Options{}))
			s.SetMetrics(reg)
			if _, err := s.All(); err != nil {
				t.Fatal(err)
			}

			var matched, others int
			for _, w := range s.Warnings() {
				if w.Code == tc.code {
					matched++
					if w.Subtype != tc.subtype {
						t.Errorf("warning subtype = %d, want %d", w.Subtype, tc.subtype)
					}
				} else {
					others++
				}
			}
			if matched != 1 {
				t.Fatalf("code %q emitted %d times, want exactly 1 (warnings: %+v)", tc.code, matched, s.Warnings())
			}
			if others != 0 {
				t.Errorf("unexpected extra warnings: %+v", s.Warnings())
			}

			snap := reg.Snapshot()
			warnKey := obs.Key("bgpstream.warnings", "reason", tc.code, "subtype", fmt.Sprint(tc.subtype))
			if got := snap.Counters[warnKey]; got != 1 {
				t.Errorf("%s = %d, want 1 (counters: %v)", warnKey, got, snap.Counters)
			}
			skipKey := obs.Key("bgpstream.records_skipped", "reason", tc.code)
			want := int64(0)
			if tc.skipped {
				want = 1
			}
			if got := snap.Counters[skipKey]; got != want {
				t.Errorf("%s = %d, want %d", skipKey, got, want)
			}
		})
	}
}

// TestWarningPerOffendingRecord checks the "once per offending record"
// contract: N bad records yield N warnings and an N-valued counter, not
// one deduplicated warning and not a cascade.
func TestWarningPerOffendingRecord(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: 13, Body: []byte{1, 2, 3}})
	}
	reg := obs.NewRegistry()
	s := NewStream(nil, BytesSource("rrc00", buf.Bytes(), bgp.Options{}))
	s.SetMetrics(reg)
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Warnings()); got != 3 {
		t.Fatalf("got %d warnings, want 3: %+v", got, s.Warnings())
	}
	key := obs.Key("bgpstream.warnings", "reason", WarnUnknownBGP4MP, "subtype", "13")
	if got := reg.Snapshot().Counters[key]; got != 3 {
		t.Errorf("%s = %d, want 3", key, got)
	}
}

// TestWarningsWithoutMetrics confirms the warning slice works identically
// with telemetry disabled (nil registry never touched).
func TestWarningsWithoutMetrics(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeBGP4MP, Subtype: 13, Body: []byte{1}})
	s := NewStream(nil, BytesSource("rrc00", buf.Bytes(), bgp.Options{}))
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	if len(s.Warnings()) != 1 || s.Warnings()[0].Code != WarnUnknownBGP4MP {
		t.Errorf("warnings = %+v", s.Warnings())
	}
}
