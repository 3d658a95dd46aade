package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
)

func allocTestMessage() Message {
	return Message{
		PeerAS: 64500, LocalAS: 12654,
		PeerAddr:  netip.MustParseAddr("192.0.2.7"),
		LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data:      bytes.Repeat([]byte{0xab}, 48),
		AS4:       true,
	}
}

// The BGP4MP codec hot path: AppendMarshal into a reused buffer and
// ParseMessageInto into a reused Message must not allocate.
func TestMessageCodecSteadyStateAllocs(t *testing.T) {
	src := allocTestMessage()
	body, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var m Message
	n := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = src.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseMessageInto(&m, src.Subtype(), body); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("BGP4MP codec steady state: %v allocs/op, want 0", n)
	}
	if !bytes.Equal(buf, body) {
		t.Fatal("AppendMarshal output diverged from Marshal")
	}
}

// Draining an archive allocates a small constant (reader + buffer
// growth), not one body per record: every body reuses one buffer.
func TestReaderReuseBufferAllocs(t *testing.T) {
	src := allocTestMessage()
	body, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	w := NewWriter(&archive)
	const records = 200
	for i := 0; i < records; i++ {
		if err := w.WriteRecord(Record{Timestamp: uint32(i), Type: TypeBGP4MP, Subtype: src.Subtype(), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := archive.Bytes()

	n := testing.AllocsPerRun(1, func() {
		r := NewReader(bytes.NewReader(data))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	// Reader + bufio buffer + one body buffer, regardless of record
	// count.
	if n > 10 {
		t.Fatalf("drain of %d records: %v allocs, want <= 10", records, n)
	}
}

// RIB.AppendTo into a buffer already sized for the record must not
// allocate: BuildRIBs encodes every record of an archive into one
// reused body buffer.
func TestRIBAppendToAllocs(t *testing.T) {
	attrs := bytes.Repeat([]byte{0x40}, 24)
	for _, rib := range []*RIB{
		{Sequence: 3, Prefix: netip.MustParsePrefix("10.1.0.0/16"),
			Entries: []RIBEntry{{PeerIndex: 1, Originated: 90, Attrs: attrs}, {PeerIndex: 2, Originated: 91, Attrs: attrs}}},
		{Sequence: 4, Prefix: netip.MustParsePrefix("2001:db8::/32"), AddPath: true,
			Entries: []RIBEntry{{PeerIndex: 1, Originated: 90, PathID: 7, Attrs: attrs}}},
	} {
		want, err := rib.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, len(want))
		n := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = rib.AppendTo(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: AppendTo into a sized buffer: %v allocs/op, want 0", rib.Prefix, n)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("%s: AppendTo output diverged from Marshal", rib.Prefix)
		}
	}
}
