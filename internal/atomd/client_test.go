// Client framing: DATA frames are runs of whole MRT records up to
// frameTarget, a longer record travels alone, and raw chunks through
// an unframeable record end where the next whole record starts. A fake
// ingest listener acks every frame and records what the client sent,
// so the assertions see the exact frames on the wire.
package atomd

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/faultgen/harness"
	"repro/internal/mrt"
)

// sentFrame is one DATA frame as the fake listener received it.
type sentFrame struct {
	seq     uint64
	payload []byte
}

func (f sentFrame) end() uint64 { return f.seq + uint64(len(f.payload)) }

// captureFrames streams data through a Client into a fake ingest
// listener, chunk bytes per Send (0 sends everything at once), drains,
// and returns the DATA frames in arrival order. The listener acks each
// frame at its end offset, as the daemon does on a clean session.
func captureFrames(t *testing.T, data []byte, chunk int) []sentFrame {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var frames []sentFrame
	done := make(chan error, 1)
	go func() {
		done <- fakeIngest(ln, &frames)
	}()

	c, err := Dial(ln.Addr().String(), "rrc00")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if chunk <= 0 {
		chunk = max(len(data), 1)
	}
	for off := 0; off < len(data); off += chunk {
		if err := c.Send(data[off:min(off+chunk, len(data))]); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("fake listener: %v", err)
	}
	if c.Acked() != uint64(len(data)) {
		t.Fatalf("acked %d of %d bytes", c.Acked(), len(data))
	}
	return frames
}

// fakeIngest serves one session on ln: it acks the hello, records and
// acks every DATA frame, and answers EOF with the drained ack.
func fakeIngest(ln net.Listener, frames *[]sentFrame) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	var (
		fp   FrameParser
		rbuf = make([]byte, 64<<10)
		resp []byte
	)
	for {
		n, rerr := conn.Read(rbuf)
		fp.Feed(rbuf[:n])
		for {
			fr, ok, perr := fp.Next()
			if perr != nil {
				return perr
			}
			if !ok {
				break
			}
			resp = resp[:0]
			switch fr.Type {
			case FrameHello:
				resp = AppendFrame(resp, FrameAck, fr.Seq, nil)
			case FrameData:
				*frames = append(*frames, sentFrame{seq: fr.Seq, payload: bytes.Clone(fr.Payload)})
				resp = AppendFrame(resp, FrameAck, fr.Seq+uint64(len(fr.Payload)), nil)
			case FrameEOF:
				_, werr := conn.Write(AppendFrameFlags(resp, FrameAck, FlagDrained, fr.Seq, nil))
				return werr
			}
			if _, werr := conn.Write(resp); werr != nil {
				return werr
			}
		}
		if rerr != nil {
			return rerr
		}
	}
}

// recordBounds walks an archive by its header length fields — whether
// or not a record is one the client can frame — and returns every
// record start plus the archive end, and the largest record.
func recordBounds(t *testing.T, data []byte) (map[uint64]bool, int) {
	t.Helper()
	bounds := map[uint64]bool{0: true}
	largest := 0
	for off := 0; off < len(data); {
		if len(data)-off < mrtHeaderLen {
			t.Fatalf("archive ends in a partial header at %d", off)
		}
		rl := mrtHeaderLen + int(binary.BigEndian.Uint32(data[off+8:off+12]))
		largest = max(largest, rl)
		off += rl
		bounds[uint64(off)] = true
	}
	return bounds, largest
}

// checkContiguous fails unless frames cover data exactly, in order.
func checkContiguous(t *testing.T, data []byte, frames []sentFrame) {
	t.Helper()
	var got []byte
	for i, f := range frames {
		if f.seq != uint64(len(got)) {
			t.Fatalf("frame %d at offset %d, want %d", i, f.seq, len(got))
		}
		got = append(got, f.payload...)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("frames carry %d bytes that differ from the %d-byte archive", len(got), len(data))
	}
}

// checkRecordAligned fails unless every frame starts and ends on a
// record boundary.
func checkRecordAligned(t *testing.T, frames []sentFrame, bounds map[uint64]bool) {
	t.Helper()
	for i, f := range frames {
		if !bounds[f.seq] || !bounds[f.end()] {
			t.Fatalf("frame %d [%d, %d) does not sit on record boundaries", i, f.seq, f.end())
		}
	}
}

// cleanArchive concatenates a harness world's update archives, keeping
// only records the client frames as records, and repeats the result
// until it spans several packed frames.
func cleanArchive(t *testing.T, seed uint64) []byte {
	t.Helper()
	w := harness.BuildWorld(harness.DefaultConfig(seed))
	var once []byte
	for _, name := range sortedNames(w.Upds) {
		data := w.Upds[name]
		for off := 0; off < len(data); {
			rl := mrtHeaderLen + int(binary.BigEndian.Uint32(data[off+8:off+12]))
			if mrt.PlausibleHeader(data[off : off+mrtHeaderLen]) {
				once = append(once, data[off:off+rl]...)
			}
			off += rl
		}
	}
	if len(once) == 0 {
		t.Fatal("world has no update records")
	}
	var out []byte
	for len(out) < 6*frameTarget {
		out = append(out, once...)
	}
	return out
}

// bgp4mpRecord builds a record header for a BGP4MP record of the given
// subtype around body.
func bgp4mpRecord(subtype uint16, body []byte) []byte {
	rec := make([]byte, mrtHeaderLen, mrtHeaderLen+len(body))
	binary.BigEndian.PutUint32(rec[0:4], 1_325_376_000)
	binary.BigEndian.PutUint16(rec[4:6], mrt.TypeBGP4MP)
	binary.BigEndian.PutUint16(rec[6:8], subtype)
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(body)))
	return append(rec, body...)
}

// splice inserts rec into data at the first record boundary at or past
// the midpoint and returns the new archive and rec's offset in it.
func splice(data, rec []byte) ([]byte, int) {
	at := recordCut(data, len(data)/2)
	out := make([]byte, 0, len(data)+len(rec))
	out = append(out, data[:at]...)
	out = append(out, rec...)
	return append(out, data[at:]...), at
}

// TestClientPacksWholeRecords pins the packing contract on a clean
// archive: every frame is a run of whole records no larger than
// frameTarget, and frames are full enough that their count stays
// within ⌈bytes / (frameTarget − largest record)⌉ + 1.
func TestClientPacksWholeRecords(t *testing.T) {
	data := cleanArchive(t, 61)
	bounds, largest := recordBounds(t, data)
	if largest >= frameTarget {
		t.Fatalf("clean archive holds a %d-byte record; pick a world without one", largest)
	}
	frames := captureFrames(t, data, 0)
	checkContiguous(t, data, frames)
	checkRecordAligned(t, frames, bounds)
	for i, f := range frames {
		if len(f.payload) > frameTarget {
			t.Fatalf("frame %d carries %d bytes, over frameTarget %d", i, len(f.payload), frameTarget)
		}
	}
	limit := (len(data)+frameTarget-largest-1)/(frameTarget-largest) + 1
	if len(frames) > limit {
		t.Fatalf("%d frames for %d bytes (largest record %d), want at most %d", len(frames), len(data), largest, limit)
	}
	records := len(bounds) - 1
	if len(frames)*10 > records {
		t.Fatalf("%d frames for %d records: packing barely happened", len(frames), records)
	}
}

// TestClientPacksOnlyBufferedRecords sends the archive in small pieces:
// packing may not wait for bytes, so a frame holds at most the partial
// record left from earlier Sends plus one Send's bytes.
func TestClientPacksOnlyBufferedRecords(t *testing.T) {
	data := cleanArchive(t, 62)
	bounds, largest := recordBounds(t, data)
	const chunk = 8 << 10
	frames := captureFrames(t, data, chunk)
	checkContiguous(t, data, frames)
	checkRecordAligned(t, frames, bounds)
	for i, f := range frames {
		if len(f.payload) > chunk+largest {
			t.Fatalf("frame %d carries %d bytes: the client waited past a %d-byte Send", i, len(f.payload), chunk)
		}
	}
}

// TestClientOversizedRecordTravelsAlone splices a record longer than
// frameTarget into a clean archive: it must go out as exactly one
// frame, with packing resuming on both sides.
func TestClientOversizedRecordTravelsAlone(t *testing.T) {
	big := bgp4mpRecord(mrt.SubMessageAS4, make([]byte, frameTarget+1000))
	data, at := splice(cleanArchive(t, 63), big)
	bounds, _ := recordBounds(t, data)
	frames := captureFrames(t, data, 0)
	checkContiguous(t, data, frames)
	checkRecordAligned(t, frames, bounds)
	alone := false
	for i, f := range frames {
		if f.seq == uint64(at) {
			alone = len(f.payload) == len(big)
		}
		if len(f.payload) > frameTarget && f.seq != uint64(at) {
			t.Fatalf("frame %d carries %d bytes over frameTarget without being the oversized record", i, len(f.payload))
		}
	}
	if !alone {
		t.Fatalf("the %d-byte record at offset %d did not travel in a frame of its own", len(big), at)
	}
}

// unknownRecord is a BGP4MP record of a subtype no decoder knows (the
// collector defect the update model plants), around a real body.
func unknownRecord(t *testing.T, data []byte) []byte {
	t.Helper()
	rl := mrtHeaderLen + int(binary.BigEndian.Uint32(data[8:12]))
	rec := bgp4mpRecord(77, data[mrtHeaderLen:rl])
	if mrt.PlausibleHeader(rec[:mrtHeaderLen]) {
		t.Fatal("subtype 77 reads as a plausible header; the splice would test nothing")
	}
	return rec
}

// TestClientResyncsAfterUnknownRecord splices an unknown-subtype record
// into the middle of an archive. The client frames it raw, then finds
// the next record boundary: every acked offset — every frame end —
// after it is a record boundary again, and frames after it are packed.
func TestClientResyncsAfterUnknownRecord(t *testing.T) {
	clean := cleanArchive(t, 64)
	rec := unknownRecord(t, clean)
	data, at := splice(clean, rec)
	bounds, largest := recordBounds(t, data)
	frames := captureFrames(t, data, 0)
	checkContiguous(t, data, frames)
	checkRecordAligned(t, frames, bounds)
	var after int
	for _, f := range frames {
		if f.seq == uint64(at) && len(f.payload) != len(rec) {
			t.Fatalf("raw chunk at the unknown record carries %d bytes, want the record's %d", len(f.payload), len(rec))
		}
		if f.seq >= uint64(at+len(rec)) {
			after++
		}
	}
	rest := len(data) - at - len(rec)
	if limit := (rest+frameTarget-largest-1)/(frameTarget-largest) + 1; after > limit {
		t.Fatalf("%d frames for the %d bytes after the unknown record, want at most %d", after, rest, limit)
	}
}

// TestDaemonUnknownRecordMatchesBatch streams archives with an
// unknown-subtype record spliced into each through live sessions: the
// daemon still equals batch replay over the same bytes after drain.
func TestDaemonUnknownRecordMatchesBatch(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(65))
	upds := make(map[string][]byte, len(w.Upds))
	for name, data := range w.Upds {
		upds[name], _ = splice(data, unknownRecord(t, data))
	}
	got := daemonAtoms(t, w.Ribs, upds, 1)
	bat := batchAtoms(t, w.Ribs, upds, 1)
	if !bytes.Equal(got, bat) {
		t.Fatalf("daemon diverges from batch after an unknown-subtype record at byte %d", diffIndex(got, bat))
	}
}
