package bgpstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
)

// buildPathAttr constructs a single path attribute, switching to the
// extended length form past 255 bytes.
func buildPathAttr(flags, typeCode byte, data []byte) []byte {
	if len(data) > 255 {
		attr := make([]byte, 4+len(data))
		attr[0] = flags | 0x10
		attr[1] = typeCode
		binary.BigEndian.PutUint16(attr[2:4], uint16(len(data)))
		copy(attr[4:], data)
		return attr
	}
	attr := make([]byte, 3+len(data))
	attr[0] = flags
	attr[1] = typeCode
	attr[2] = byte(len(data))
	copy(attr[3:], data)
	return attr
}

// buildBGPUpdate constructs a BGP UPDATE message from its raw sections.
func buildBGPUpdate(withdrawn, pathAttrs, nlri []byte) []byte {
	total := bgp.HeaderLen + 2 + len(withdrawn) + 2 + len(pathAttrs) + len(nlri)
	msg := make([]byte, bgp.HeaderLen, total)
	for i := 0; i < bgp.MarkerLen; i++ {
		msg[i] = 0xff
	}
	binary.BigEndian.PutUint16(msg[16:18], uint16(total))
	msg[18] = bgp.MsgUpdate
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(withdrawn)))
	msg = append(msg, withdrawn...)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(pathAttrs)))
	msg = append(msg, pathAttrs...)
	return append(msg, nlri...)
}

// asSeq encodes one AS_SEQUENCE segment with 2- or 4-octet ASNs.
func asSeq(four bool, asns ...uint32) []byte {
	b := []byte{byte(aspath.SegSequence), byte(len(asns))}
	for _, a := range asns {
		if four {
			b = binary.BigEndian.AppendUint32(b, a)
		} else {
			b = binary.BigEndian.AppendUint16(b, uint16(a))
		}
	}
	return b
}

// block concatenates attributes into one attribute block.
func block(attrs ...[]byte) []byte { return bytes.Join(attrs, nil) }

var (
	originIGP = buildPathAttr(0x40, byte(bgp.AttrTypeOrigin), []byte{0})
	nextHop   = buildPathAttr(0x40, byte(bgp.AttrTypeNextHop), []byte{192, 0, 2, 1})
	// badOrigin is an ORIGIN attribute with an out-of-range value.
	badOrigin = buildPathAttr(0x40, byte(bgp.AttrTypeOrigin), []byte{9})
)

// pathBlock is a minimal announcement block for a 4-octet path.
func pathBlock(asns ...uint32) []byte {
	return block(originIGP, buildPathAttr(0x40, byte(bgp.AttrTypeASPath), asSeq(true, asns...)), nextHop)
}

// nlriBytes encodes IPv4 prefixes as plain NLRI.
func nlriBytes(prefixes ...string) []byte {
	var b []byte
	for _, s := range prefixes {
		p := netip.MustParsePrefix(s)
		a := p.Addr().As4()
		b = append(b, byte(p.Bits()))
		b = append(b, a[:(p.Bits()+7)/8]...)
	}
	return b
}

// archive appends hand-built MRT records to one buffer.
type archive struct {
	t   testing.TB
	buf bytes.Buffer
	seq uint32 // next RIB sequence number
}

func (a *archive) record(ts uint32, typ, subtype uint16, body []byte) {
	writeRecord(a.t, &a.buf, mrt.Record{Timestamp: ts, Type: typ, Subtype: subtype, Body: body})
}

// pit writes a peer index table of n peers, ASNs 3356, 3357, ...
func (a *archive) pit(n int) {
	a.record(100, mrt.TypeTableDumpV2, mrt.SubPeerIndexTable, marshalPIT(a.t, n))
}

// rib writes a RIB record for prefix whose entry i (peer i) carries
// blocks[i], in ADD-PATH form when addPath is set.
func (a *archive) rib(prefix string, addPath bool, blocks ...[]byte) {
	a.t.Helper()
	r := &mrt.RIB{Sequence: a.seq, Prefix: netip.MustParsePrefix(prefix), AddPath: addPath}
	a.seq++
	for i, b := range blocks {
		r.Entries = append(r.Entries, mrt.RIBEntry{PeerIndex: uint16(i), Originated: 100, PathID: uint32(i + 1), Attrs: b})
	}
	body, err := r.Marshal()
	if err != nil {
		a.t.Fatal(err)
	}
	a.record(100, mrt.TypeTableDumpV2, r.Subtype(), body)
}

// update writes a BGP4MP message record carrying data.
func (a *archive) update(ts, peerAS uint32, as4, addPath bool, data []byte) {
	a.t.Helper()
	m := &mrt.Message{PeerAS: peerAS, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: as4, AddPath: addPath}
	body, err := m.Marshal()
	if err != nil {
		a.t.Fatal(err)
	}
	a.record(ts, mrt.TypeBGP4MP, m.Subtype(), body)
}

// drainAll decodes every source in one stream interning into tbl and
// returns copies of its elements and its warnings.
func drainAll(t *testing.T, tbl *aspath.Table, sources ...Source) ([]Elem, []Warning) {
	t.Helper()
	s := NewStream(nil, sources...)
	s.SetIntern(tbl)
	var elems []Elem
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			return elems, s.Warnings()
		}
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, batch...)
	}
}

func flat(t *testing.T, p aspath.Path) aspath.Seq {
	t.Helper()
	s, err := p.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMemoKeysOnDecodeOptions: the memo keys a block by the options it
// is decoded under, not by its bytes alone.
func TestMemoKeysOnDecodeOptions(t *testing.T) {
	t.Run("AS4", func(t *testing.T) {
		// Valid in both widths: 4-octet reads two ASNs, 2-octet reads
		// [100 200] then a second segment [300].
		raw := []byte{2, 2, 0, 100, 0, 200, 2, 1, 1, 44}
		b := block(originIGP, buildPathAttr(0x40, byte(bgp.AttrTypeASPath), raw), nextHop)
		a := &archive{t: t}
		a.update(200, 65001, false, false, buildBGPUpdate(nil, b, nlriBytes("10.0.0.0/24")))
		a.update(201, 65001, true, false, buildBGPUpdate(nil, b, nlriBytes("10.0.1.0/24")))
		elems, warns := drainAll(t, aspath.NewTable(), BytesSource("rrc00", a.buf.Bytes(), bgp.Options{}))
		if len(elems) != 2 || len(warns) != 0 {
			t.Fatalf("got %d elems, warnings %v; want 2, none", len(elems), warns)
		}
		if got, want := flat(t, elems[0].Path), (aspath.Seq{100, 200, 300}); !got.Equal(want) {
			t.Errorf("2-octet message path = %v, want %v", got, want)
		}
		if got, want := flat(t, elems[1].Path), (aspath.Seq{100<<16 | 200, 2<<24 | 1<<16 | 300}); !got.Equal(want) {
			t.Errorf("AS4 message path = %v, want %v", got, want)
		}
		if elems[0].InternedPath == elems[1].InternedPath {
			t.Error("both widths interned to one ID")
		}
	})
	t.Run("ADD-PATH", func(t *testing.T) {
		// MP_REACH IPv4 NLRI that parse only in ADD-PATH form: read
		// plainly, the path ID's fourth byte is a /33.
		mp := []byte{0, 1, 1, 4, 192, 0, 2, 1, 0, 0, 0, 0, 0x21, 24, 10, 0, 0}
		b := block(pathBlock(3356, 65001), buildPathAttr(0x80, byte(bgp.AttrTypeMPReach), mp))
		for _, order := range [][2]bool{{true, false}, {false, true}} {
			a := &archive{t: t}
			a.pit(1)
			a.rib("10.0.0.0/24", order[0], b)
			a.rib("10.0.1.0/24", order[1], b)
			elems, warns := drainAll(t, aspath.NewTable(), BytesSource("rrc00", a.buf.Bytes(), bgp.Options{}))
			if len(elems) != 1 || len(warns) != 1 || warns[0].Code != WarnRIBAttrs {
				t.Fatalf("add-path order %v: %d elems, warnings %v; want 1 elem and one %s", order, len(elems), warns, WarnRIBAttrs)
			}
			if want := map[bool]string{true: "10.0.0.0/24", false: "10.0.1.0/24"}[order[0]]; elems[0].Prefix.String() != want {
				t.Errorf("add-path order %v: element for %v, want %v", order, elems[0].Prefix, want)
			}
		}
	})
	t.Run("RIB", func(t *testing.T) {
		// A RIB entry and an UPDATE share one block whose MP_REACH
		// announces a v6 prefix: the UPDATE must still announce it.
		mp := []byte{0, 2, 1, 16}
		mp = append(mp, netip.MustParseAddr("2001:db8::1").AsSlice()...)
		mp = append(mp, 0, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 1)
		b := block(pathBlock(3356, 65001), buildPathAttr(0x80, byte(bgp.AttrTypeMPReach), mp))
		a := &archive{t: t}
		a.pit(1)
		a.rib("2001:db8:1::/48", false, b)
		a.update(200, 65001, true, false, buildBGPUpdate(nil, b, nil))
		elems, warns := drainAll(t, aspath.NewTable(), BytesSource("rrc00", a.buf.Bytes(), bgp.Options{}))
		if len(elems) != 2 || len(warns) != 0 {
			t.Fatalf("got %d elems, warnings %v; want 2, none", len(elems), warns)
		}
		if e := elems[1]; e.Type != ElemAnnounce || e.Prefix != netip.MustParsePrefix("2001:db8:1::/48") || e.InternedPath != elems[0].InternedPath {
			t.Errorf("UPDATE element %+v: want an announcement of 2001:db8:1::/48 on the RIB's path", e)
		}
	})
}

// TestMemoCorruptBlockWarnsEveryRecord: a block that fails to parse is
// never memoized, so every record carrying it warns and counts as
// skipped, however often it repeats.
func TestMemoCorruptBlockWarnsEveryRecord(t *testing.T) {
	bad := block(badOrigin, buildPathAttr(0x40, byte(bgp.AttrTypeASPath), asSeq(true, 3356, 65001)), nextHop)
	good := pathBlock(3356, 65001)
	a := &archive{t: t}
	a.pit(2)
	for i := 0; i < 3; i++ {
		a.rib(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16).String(), false, bad, good)
	}
	for i := 0; i < 2; i++ {
		a.update(uint32(200+i), 65001, true, false, buildBGPUpdate(nil, bad, nlriBytes("10.9.0.0/16")))
	}
	s := NewStream(nil, BytesSource("rrc00", a.buf.Bytes(), bgp.Options{}))
	s.SetIntern(aspath.NewTable())
	elems := drain(t, s)
	if len(elems) != 3 {
		t.Fatalf("got %d elements, want the 3 good RIB entries", len(elems))
	}
	count := map[string]int{}
	for _, w := range s.Warnings() {
		count[w.Code]++
	}
	if count[WarnRIBAttrs] != 3 || count[WarnUpdateParse] != 2 || len(count) != 2 {
		t.Errorf("warnings by code %v, want %s: 3, %s: 2", count, WarnRIBAttrs, WarnUpdateParse)
	}
	if st := s.SourceStats()["rrc00"]; st.Skipped != 5 {
		t.Errorf("skipped %d, want 5", st.Skipped)
	}
}

// memoArchive is a collector archive that repeats attribute blocks the
// way RIB dumps and update feeds do: a peer table, RIB records whose
// entries draw from a few paths per peer (plain, ADD-PATH and IPv6,
// with a repeated corrupt block and a multi-member AS_SET), and updates
// with repeated blocks in AS4, 2-octet + AS4_PATH and ADD-PATH form,
// MP_REACH announcements, withdrawals and a repeated corrupt block.
func memoArchive(t testing.TB) []byte {
	t.Helper()
	comm := buildPathAttr(0xc0, byte(bgp.AttrTypeCommunities), []byte{0x0d, 0x1c, 0, 100})
	asSet := block(originIGP, buildPathAttr(0x40, byte(bgp.AttrTypeASPath),
		append(asSeq(true, 3356), byte(aspath.SegSet), 2, 0, 0, 0xfd, 0xe9, 0, 0, 0xfd, 0xea)), nextHop)
	bad := block(badOrigin, buildPathAttr(0x40, byte(bgp.AttrTypeASPath), asSeq(true, 3356, 65001)), nextHop)
	peerBlock := func(peer, k int) []byte {
		switch {
		case k == 4:
			return asSet
		case k == 5 && peer == 2:
			return bad
		}
		b := pathBlock(uint32(3356+peer), 174, uint32(65000+k))
		if k%2 == 1 {
			b = block(b, comm)
		}
		return b
	}
	a := &archive{t: t}
	a.pit(3)
	for i := 0; i < 36; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16).String()
		if i%9 == 8 {
			pfx = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(i)}), 48).String()
		}
		a.rib(pfx, i%7 == 6, peerBlock(0, i%6), peerBlock(1, i%5), peerBlock(2, i%6))
	}
	// 2-octet sessions carry 4-octet ASNs as AS_TRANS plus AS4_PATH.
	as4path := block(originIGP,
		buildPathAttr(0x40, byte(bgp.AttrTypeASPath), asSeq(false, 3356, bgp.AS_TRANS)),
		nextHop, buildPathAttr(0xc0, byte(bgp.AttrTypeAS4Path), asSeq(true, 3356, 400000)))
	v6 := func(pfx byte) []byte {
		mp := []byte{0, 2, 1, 16}
		mp = append(mp, netip.MustParseAddr("2001:db8::1").AsSlice()...)
		mp = append(mp, 0, 48, 0x20, 0x01, 0x0d, 0xb8, 0, pfx)
		return block(pathBlock(3356, 65010), buildPathAttr(0x80, byte(bgp.AttrTypeMPReach), mp))
	}
	for i := 0; i < 24; i++ {
		ts, peer := uint32(1000+i), uint32(3356+i%3)
		nlri := nlriBytes(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16).String())
		switch i % 6 {
		case 0:
			a.update(ts, peer, true, false, buildBGPUpdate(nil, peerBlock(i%3, i%4), nlri))
		case 1:
			a.update(ts, peer, false, false, buildBGPUpdate(nil, as4path, nlri))
		case 2:
			a.update(ts, peer, true, true, buildBGPUpdate(nil, peerBlock(0, 1), append([]byte{0, 0, 0, byte(i)}, nlri...)))
		case 3:
			a.update(ts, peer, true, false, buildBGPUpdate(nil, v6(byte(i%2)), nil))
		case 4:
			a.update(ts, peer, true, false, buildBGPUpdate(nlri, nil, nil))
		case 5:
			a.update(ts, peer, true, false, buildBGPUpdate(nil, bad, nlri))
		}
	}
	return a.buf.Bytes()
}

// TestMemoMatchesColdDecode is the memo's differential: decoding an
// archive as one stream, where repeated blocks hit the memo, yields the
// same elements, intern IDs and warnings as decoding each record in a
// stream of its own (a RIB record's led by the peer table), where every
// block decodes cold. Only MsgIndex differs, by construction.
func TestMemoMatchesColdDecode(t *testing.T) {
	data := memoArchive(t)
	warm, warmWarns := drainAll(t, aspath.NewTable(), BytesSource("rrc00", data, bgp.Options{}))

	var cold []Elem
	var coldWarns []Warning
	tbl := aspath.NewTable()
	r := mrt.NewReader(bytes.NewReader(data))
	var pit []byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if rec.IsRIB() {
			buf.Write(pit)
		}
		writeRecord(t, &buf, rec)
		if rec.Type == mrt.TypeTableDumpV2 && rec.Subtype == mrt.SubPeerIndexTable {
			pit = bytes.Clone(buf.Bytes())
			continue
		}
		elems, warns := drainAll(t, tbl, BytesSource("rrc00", buf.Bytes(), bgp.Options{}))
		cold = append(cold, elems...)
		coldWarns = append(coldWarns, warns...)
	}

	if len(warm) < 100 || len(warmWarns) < 4 {
		t.Fatalf("fixture too thin: %d elements, %d warnings", len(warm), len(warmWarns))
	}
	if len(warm) != len(cold) {
		t.Fatalf("one stream gave %d elements, per-record streams %d", len(warm), len(cold))
	}
	for i := range warm {
		w, c := warm[i], cold[i]
		w.MsgIndex, c.MsgIndex = 0, 0
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("element %d differs:\n  one stream: %+v\n  cold:       %+v", i, w, c)
		}
	}
	if !reflect.DeepEqual(warmWarns, coldWarns) {
		t.Errorf("warnings differ:\n  one stream: %v\n  cold:       %v", warmWarns, coldWarns)
	}
}

// TestMemoSharesDecodedValues: elements decoded from one repeated block
// share the memo entry's path and communities instead of re-parsed
// copies, for RIB entries and UPDATEs alike; an MP_REACH block is
// parsed per message.
func TestMemoSharesDecodedValues(t *testing.T) {
	data := memoArchive(t)
	elems, _ := drainAll(t, aspath.NewTable(), BytesSource("rrc00", data, bgp.Options{}))
	first := map[string]*Elem{}
	shared, mp := 0, 0
	for i := range elems {
		e := &elems[i]
		if len(e.Path.Segments) == 0 {
			continue
		}
		// The fixture gives every ADD-PATH element a path ID, and an
		// ADD-PATH block is memoized apart from its plain twin.
		key := fmt.Sprint(e.Type, e.Path, e.Communities, e.PathID != 0)
		prev := first[key]
		if prev == nil {
			first[key] = e
			continue
		}
		same := &prev.Path.Segments[0].ASNs[0] == &e.Path.Segments[0].ASNs[0]
		switch {
		case e.Prefix.Addr().Is6() && e.Type == ElemAnnounce:
			if same {
				t.Errorf("MP_REACH announcement %v shares a memoized path", e.Prefix)
			}
			mp++
		case !same:
			t.Errorf("%s element %v re-parsed path %v", e.Type, e.Prefix, e.Path)
		default:
			shared++
		}
	}
	if shared < 50 || mp == 0 {
		t.Fatalf("fixture exercised %d shared and %d MP_REACH repeats", shared, mp)
	}
}

// TestRIBMemoHitZeroAlloc pins the RIB decode path: once the memo holds
// a record's blocks, decoding the record (ParseRIBInto into reused
// entries, memo hits, elements into the reused buffer) must not
// allocate.
func TestRIBMemoHitZeroAlloc(t *testing.T) {
	a := &archive{t: t}
	a.pit(2)
	b0, b1 := pathBlock(3356, 174, 65001), pathBlock(3357, 1299, 65001)
	for i := 0; i < 400; i++ {
		a.rib(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24).String(), false, b0, b1)
	}
	s := NewStream(nil, BytesSource("rrc00", a.buf.Bytes(), bgp.Options{}))
	s.SetIntern(aspath.NewTable())
	next := func() {
		batch, err := s.NextBatch()
		if err != nil || len(batch) != 2 {
			t.Fatalf("NextBatch = %d elems, %v; want 2, nil", len(batch), err)
		}
	}
	for i := 0; i < 10; i++ {
		next()
	}
	if n := testing.AllocsPerRun(200, next); n != 0 {
		t.Fatalf("memo-hit RIB record: %v allocs/op, want 0", n)
	}
}
