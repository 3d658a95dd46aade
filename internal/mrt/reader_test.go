package mrt

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// etRecord builds a BGP4MP_ET record with the given microsecond stamp.
func etRecord(micro uint32, body []byte) Record {
	return Record{Timestamp: 5000, Micro: micro, Type: TypeBGP4MPET, Subtype: SubMessageAS4, Body: body}
}

// readAll drains r, copying every body out of the reader's reused
// buffer so the records outlive the following Next.
func readAll(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	var out []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		rec.Body = bytes.Clone(rec.Body)
		out = append(out, rec)
	}
}

// traceEvent is one step of a decode-with-recovery run: either a
// decoded record, or an error class, or a resync outcome with its skip
// count. The bgpstream degradation machinery turns exactly these steps
// into warnings and skip accounting.
type traceEvent struct {
	rec     Record
	kind    string
	skipped int
}

func decodeTrace(t *testing.T, rd *Reader, budget int) []traceEvent {
	t.Helper()
	var tr []traceEvent
	for steps := 0; steps < 100; steps++ {
		rec, err := rd.Next()
		switch {
		case err == nil:
			rec.Body = bytes.Clone(rec.Body)
			tr = append(tr, traceEvent{rec: rec, kind: "record"})
			continue
		case err == io.EOF:
			return append(tr, traceEvent{kind: "eof"})
		case errors.Is(err, ErrTruncated):
			tr = append(tr, traceEvent{kind: "truncated"})
		case errors.Is(err, ErrBadRecord):
			tr = append(tr, traceEvent{kind: "bad-record"})
		default:
			t.Fatalf("unexpected decode error: %v", err)
		}
		skipped, rerr := rd.Resync(budget)
		switch {
		case rerr == nil:
			tr = append(tr, traceEvent{kind: "resync", skipped: skipped})
		case rerr == io.EOF:
			return append(tr, traceEvent{kind: "resync-eof", skipped: skipped})
		case errors.Is(rerr, ErrTruncated):
			return append(tr, traceEvent{kind: "resync-budget", skipped: skipped})
		default:
			t.Fatalf("unexpected resync error: %v", rerr)
		}
	}
	t.Fatal("decode trace did not terminate")
	return nil
}

func sameTrace(a, b []traceEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.kind != y.kind || x.skipped != y.skipped {
			return false
		}
		if x.rec.Timestamp != y.rec.Timestamp || x.rec.Micro != y.rec.Micro ||
			x.rec.Type != y.rec.Type || x.rec.Subtype != y.rec.Subtype ||
			!bytes.Equal(x.rec.Body, y.rec.Body) {
			return false
		}
	}
	return true
}

// TestReaderTraces pins the reader's decode-with-recovery trace over
// clean and damaged streams: the records, the error class at each
// damage, and every resync's skip count. bgpstream's warnings and
// degradation decisions follow from these steps alone.
func TestReaderTraces(t *testing.T) {
	r1 := resyncRecord(t, 1)
	r2 := resyncRecord(t, 2)
	et := etRecord(77, []byte{1, 2, 3, 4, 5})
	clean := marshalRecords(t, r1, et, r2)

	garbage := append([]byte(nil), marshalRecords(t, r1)...)
	garbage = append(garbage, bytes.Repeat([]byte{0xff}, 20)...)
	garbage = append(garbage, marshalRecords(t, r2)...)

	truncated := marshalRecords(t, r1, r2)
	truncated = truncated[:len(truncated)-3]

	headerCut := marshalRecords(t, r1)
	headerCut = append(headerCut, marshalRecords(t, r2)[:5]...)

	oversize := append([]byte(nil), marshalRecords(t, r1, r2)...)
	oversize[8], oversize[9] = 0xff, 0xff // absurd length on record 1

	noBoundary := append(bytes.Repeat([]byte{0xff}, 12), make([]byte, 64)...)

	rec := func(r Record) traceEvent { return traceEvent{rec: r, kind: "record"} }
	ev := func(kind string, skipped int) traceEvent { return traceEvent{kind: kind, skipped: skipped} }
	cases := []struct {
		name   string
		data   []byte
		budget int
		want   []traceEvent
	}{
		{"clean", clean, 0, []traceEvent{rec(r1), rec(et), rec(r2), ev("eof", 0)}},
		// Next takes 12 garbage bytes as a header with an absurd length;
		// the scan discards the other 8 and locks onto r2.
		{"garbage mid-stream", garbage, 0, []traceEvent{rec(r1), ev("bad-record", 0), ev("resync", 8), rec(r2), ev("eof", 0)}},
		// The failing Next consumes the partial tail, so the scan finds
		// the stream drained.
		{"truncated tail", truncated, 0, []traceEvent{rec(r1), ev("truncated", 0), ev("resync-eof", 0)}},
		{"header cut", headerCut, 0, []traceEvent{rec(r1), ev("truncated", 0), ev("resync-eof", 0)}},
		// The oversize header is consumed; the scan skips r1's body.
		{"oversize length", oversize, 0, []traceEvent{ev("bad-record", 0), ev("resync", len(r1.Body)), rec(r2), ev("eof", 0)}},
		{"scan budget exhausted", noBoundary, 16, []traceEvent{ev("bad-record", 0), ev("resync-budget", 16)}},
		{"empty", nil, 0, []traceEvent{ev("eof", 0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := decodeTrace(t, NewReader(bytes.NewReader(c.data)), c.budget)
			if !sameTrace(got, c.want) {
				t.Errorf("trace:\n got  %+v\n want %+v", got, c.want)
			}
		})
	}
}

// TestReaderClaimedLengthAllocs checks that a header claiming a large
// body over a short stream allocates for the bytes that arrive, not for
// the claim: a truncated record must not cost its claimed length.
func TestReaderClaimedLengthAllocs(t *testing.T) {
	data := make([]byte, headerLen+20)
	data[5] = byte(TypeBGP4MP)
	data[7] = byte(SubMessageAS4)
	claimed := uint32(60 << 20)
	data[8], data[9], data[10], data[11] = byte(claimed>>24), byte(claimed>>16), byte(claimed>>8), byte(claimed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(data)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next over a truncated body: %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Next allocated %d KiB for a %d-byte input claiming %d MiB, want < 1024 KiB",
			got>>10, len(data), claimed>>20)
	}
}
