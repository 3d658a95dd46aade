// Package atomd is the streaming atom daemon: it accepts live update
// streams over TCP (one session per collector), feeds them through the
// same element mapping batch replay uses into a resident
// core.AtomIndex, and concurrently serves point queries — SameAtom,
// MemberCount, prefix→atom, materialized snapshots — over the
// obs.DebugServer HTTP seam and a binary query port.
//
// # Wire format
//
// Both ports speak the same length-prefixed frame:
//
//	offset 0  magic   0xA7 0xD1
//	offset 2  type    byte (FrameHello, FrameData, ...)
//	offset 3  flags   byte (FlagDrained on the final ingest ack)
//	offset 4  seq     uint64 big-endian
//	offset 12 length  uint32 big-endian payload byte count
//	offset 16 payload
//
// On the ingest port a session opens with FrameHello (payload = the
// collector name, seq = the resume offset, 0 for a fresh stream), then
// streams FrameData frames whose payload is a contiguous slice of the
// collector's update archive and whose seq is the payload's byte
// offset within that stream. The server acks the contiguous high-water
// mark after every frame; a gap elicits FrameNak carrying the offset
// to rewind to. FrameEOF (seq = total bytes) asks the server to drain
// the decode pipeline and answer with a FlagDrained ack — the clean
// barrier tests and clients use to mark "everything sent is applied".
//
// Because DATA payloads are raw archive bytes, the server-side decoder
// is literally the batch decode path (bgpstream over the concatenated
// payload), so record-level damage resyncs and quarantines exactly as
// batch replay would — the daemon-vs-batch differential over
// faultgen-damaged streams holds by construction. Frame-level garbage
// is the parser's problem: it scans for the magic with a bounded
// budget and the session quarantines when the budget exhausts.
package atomd

import (
	"encoding/binary"
	"errors"
)

const (
	magic0 = 0xA7
	magic1 = 0xD1
	// headerLen is the fixed frame header size.
	headerLen = 16
	// MaxFramePayload bounds one frame's payload: one full MRT record
	// (the mrt package caps records at 64 MiB) plus header slack. A
	// larger claimed length marks the candidate header as garbage.
	MaxFramePayload = 1<<26 + 1<<10
	// maxFrameScan bounds the garbage scanned between frames before the
	// parser declares the connection desynchronized (mirrors
	// bgpstream's resync scan budget).
	maxFrameScan = 1 << 20
)

// Frame types. Values above frameMaxType are invalid and treated as
// garbage by the parser.
const (
	FrameHello byte = 1 // ingest: open a session (payload = collector)
	FrameData  byte = 2 // ingest: archive bytes at offset seq
	FrameEOF   byte = 3 // ingest: stream end, request a drained ack
	FrameAck   byte = 4 // server: contiguous bytes accepted through seq
	FrameNak   byte = 5 // server: rewind to seq and retransmit

	FrameSameAtom    byte = 16 // query: payload = two uint32 prefix rows
	FrameMemberCount byte = 17 // query: payload = one uint32 prefix row
	FramePrefixAtom  byte = 18 // query: payload = encoded prefix
	FrameEpoch       byte = 19 // query: empty payload
	FrameReply       byte = 24 // server: query answer, seq echoes request
	FrameError       byte = 25 // server: protocol error (payload = text)

	frameMaxType = FrameError
)

// Frame flags.
const (
	// FlagDrained marks the ack answering FrameEOF: every payload byte
	// the session accepted has been decoded and applied to the index.
	FlagDrained byte = 1
)

// Frame is one decoded wire frame. Payload aliases the parser's buffer
// and is only valid until the next call to Next or Feed.
type Frame struct {
	Type    byte
	Flags   byte
	Seq     uint64
	Payload []byte
}

// ErrDesync reports that a FrameParser scanned maxFrameScan bytes
// without finding a plausible frame header. The error is sticky: the
// byte stream has no recoverable framing left and the session must
// quarantine the connection.
var ErrDesync = errors.New("atomd: frame desync: no magic within scan budget")

// AppendFrame appends one encoded frame to dst and returns it, flags
// zero. The append style keeps steady-state framing allocation-free
// once dst has warmed up.
func AppendFrame(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	return AppendFrameFlags(dst, typ, 0, seq, payload)
}

// AppendFrameFlags is AppendFrame with an explicit flags byte.
func AppendFrameFlags(dst []byte, typ, flags byte, seq uint64, payload []byte) []byte {
	dst = append(dst, magic0, magic1, typ, flags)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// FrameParser incrementally decodes frames from an untrusted byte
// stream. Feed appends raw bytes; Next pops the next complete frame,
// scanning past garbage for the magic with a bounded budget — a
// truncated, oversized, or corrupted frame never panics, it either
// resynchronizes on the next magic or exhausts the budget and returns
// ErrDesync. The zero value is ready to use.
type FrameParser struct {
	buf     []byte
	off     int    // consumed prefix of buf
	skipped int    // garbage bytes scanned since the last good frame
	total   uint64 // lifetime garbage bytes (metrics)
	desync  bool   // sticky ErrDesync state
}

// Feed appends stream bytes for parsing. The parser copies them, so
// the caller keeps ownership of b.
func (fp *FrameParser) Feed(b []byte) {
	// Compact the consumed prefix before growing: a session's buffer
	// stays bounded by one frame plus read slack.
	if fp.off > 0 && (fp.off >= len(fp.buf) || len(fp.buf)-fp.off < fp.off) {
		n := copy(fp.buf, fp.buf[fp.off:])
		fp.buf = fp.buf[:n]
		fp.off = 0
	}
	fp.buf = append(fp.buf, b...)
}

// Skipped returns the lifetime count of garbage bytes scanned past.
func (fp *FrameParser) Skipped() uint64 { return fp.total }

// Next returns the next complete frame. ok=false with a nil error
// means more bytes are needed; ErrDesync (sticky) means the scan
// budget is exhausted and the stream is unrecoverable.
func (fp *FrameParser) Next() (Frame, bool, error) {
	if fp.desync {
		return Frame{}, false, ErrDesync
	}
	for {
		b := fp.buf[fp.off:]
		// Hunt for the magic, counting every skipped byte against the
		// budget — a stream of pure garbage terminates, never spins.
		i := 0
		for i < len(b) && !(b[i] == magic0 && i+1 < len(b) && b[i+1] == magic1) {
			// A trailing 0xA7 might be half a magic; keep it buffered.
			if b[i] == magic0 && i+1 >= len(b) {
				break
			}
			i++
		}
		if i > 0 {
			fp.skipped += i
			fp.total += uint64(i)
			fp.off += i
			if fp.skipped > maxFrameScan {
				fp.desync = true
				return Frame{}, false, ErrDesync
			}
			b = fp.buf[fp.off:]
		}
		if len(b) < headerLen {
			return Frame{}, false, nil // need more bytes (or trailing partial magic)
		}
		typ := b[2]
		length := binary.BigEndian.Uint32(b[12:16])
		if typ == 0 || typ > frameMaxType || length > MaxFramePayload {
			// Implausible header: the magic was a false positive inside
			// garbage (or a corrupted frame). Skip the magic and rescan.
			fp.skipped += 2
			fp.total += 2
			fp.off += 2
			if fp.skipped > maxFrameScan {
				fp.desync = true
				return Frame{}, false, ErrDesync
			}
			continue
		}
		if len(b) < headerLen+int(length) {
			return Frame{}, false, nil // payload still in flight
		}
		fr := Frame{
			Type:    typ,
			Flags:   b[3],
			Seq:     binary.BigEndian.Uint64(b[4:12]),
			Payload: b[headerLen : headerLen+int(length)],
		}
		fp.off += headerLen + int(length)
		fp.skipped = 0
		return fr, true, nil
	}
}
