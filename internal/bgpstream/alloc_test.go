package bgpstream

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
)

// The stream's UPDATE decode path (fill → ParseMessageInto →
// ParseUpdateInto with the pooled attribute cache → path interning)
// reuses one element buffer: once the cache, the intern table and the
// buffer are warm, serving a record must not allocate.
func TestNextBatchSteadyStateAllocs(t *testing.T) {
	upd, err := bgp.NewAnnouncement(aspath.Seq{3356, 65001}, netip.MustParseAddr("192.0.2.1"),
		[]netip.Prefix{netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	data, err := upd.Marshal(bgp.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	msg := &mrt.Message{PeerAS: 3356, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: true}
	body, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const records = 400
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for i := 0; i < records; i++ {
		w.WriteRecord(mrt.Record{Timestamp: uint32(200 + i), Type: mrt.TypeBGP4MP, Subtype: msg.Subtype(), Body: body})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	s := NewStream(nil, BytesSource("rrc00", buf.Bytes(), bgp.Options{}))
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
		t.Fatalf("NextBatch steady state: %v allocs/op, want 0", n)
	}
}
