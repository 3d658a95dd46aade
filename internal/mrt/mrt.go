// Package mrt implements the MRT export format (RFC 6396) used by the
// RIPE RIS and RouteViews archives, with the ADD-PATH extensions of
// RFC 8050 — both reading and writing.
//
// Supported record types:
//
//   - TABLE_DUMP_V2: PEER_INDEX_TABLE, RIB_IPV4_UNICAST,
//     RIB_IPV6_UNICAST, and their _ADDPATH variants — RIB snapshots.
//   - BGP4MP / BGP4MP_ET: MESSAGE, MESSAGE_AS4, STATE_CHANGE(_AS4),
//     and the _ADDPATH message variants — update streams.
//
// The low-level API is Record (raw header + body) via Reader/Writer; the
// typed API decodes bodies into PeerIndexTable, RIB, and Message values.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MRT record types.
const (
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16
	TypeBGP4MPET    uint16 = 17
)

// TABLE_DUMP_V2 subtypes.
const (
	SubPeerIndexTable     uint16 = 1
	SubRIBIPv4Unicast     uint16 = 2
	SubRIBIPv4Multicast   uint16 = 3
	SubRIBIPv6Unicast     uint16 = 4
	SubRIBIPv6Multicast   uint16 = 5
	SubRIBGeneric         uint16 = 6
	SubRIBIPv4UnicastAP   uint16 = 8 // RFC 8050 ADD-PATH
	SubRIBIPv4MulticastAP uint16 = 9
	SubRIBIPv6UnicastAP   uint16 = 10
	SubRIBIPv6MulticastAP uint16 = 11
)

// BGP4MP subtypes.
const (
	SubStateChange     uint16 = 0
	SubMessage         uint16 = 1
	SubMessageAS4      uint16 = 4
	SubStateChangeAS4  uint16 = 5
	SubMessageLocal    uint16 = 6
	SubMessageAS4Local uint16 = 7
	SubMessageAP       uint16 = 8 // RFC 8050 ADD-PATH
	SubMessageAS4AP    uint16 = 9
	SubMessageLocalAP  uint16 = 10
	SubMessageAS4LocAP uint16 = 11
)

// Errors returned by the codec.
var (
	ErrTruncated    = errors.New("mrt: truncated record")
	ErrBadRecord    = errors.New("mrt: malformed record")
	ErrUnsupported  = errors.New("mrt: unsupported record type")
	maxRecordLength = uint32(64 << 20) // 64 MiB sanity cap
)

// headerLen is the fixed MRT common header size.
const headerLen = 12

// Record is one raw MRT record: the common header plus the undecoded
// body. BGP4MP_ET's extended timestamp is extracted into Micro.
type Record struct {
	Timestamp uint32
	Micro     uint32 // microseconds, BGP4MP_ET only
	Type      uint16
	Subtype   uint16
	Body      []byte
}

// IsRIB reports whether the record is a TABLE_DUMP_V2 RIB record
// (unicast or multicast, either family, ADD-PATH or not).
func (r Record) IsRIB() bool {
	return r.Type == TypeTableDumpV2 && r.Subtype >= SubRIBIPv4Unicast && r.Subtype <= SubRIBIPv6MulticastAP && r.Subtype != SubRIBGeneric && r.Subtype != 7
}

// Writer emits MRT records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	err error
	// hdr is the header scratch; as a field it avoids the per-record
	// heap escape a local array suffers when passed through io.Writer.
	hdr [headerLen + 4]byte
}

// NewWriter returns a Writer buffering onto w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteRecord emits one record. The first error encountered is sticky.
func (w *Writer) WriteRecord(r Record) error {
	if w.err != nil {
		return w.err
	}
	body := r.Body
	hdr := w.hdr[:headerLen]
	binary.BigEndian.PutUint32(hdr[0:4], r.Timestamp)
	binary.BigEndian.PutUint16(hdr[4:6], r.Type)
	binary.BigEndian.PutUint16(hdr[6:8], r.Subtype)
	bodyLen := len(body)
	if r.Type == TypeBGP4MPET {
		bodyLen += 4
		hdr = w.hdr[:headerLen+4]
		binary.BigEndian.PutUint32(hdr[headerLen:], r.Micro)
	}
	binary.BigEndian.PutUint32(hdr[8:12], uint32(bodyLen))
	if _, err := w.w.Write(hdr); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush drains the buffer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Reader iterates MRT records from an io.Reader. Every record body is
// read into the reader's one reused buffer: a returned Record.Body, and
// every view parsed from it (ParseMessageInto's Data, ParseRIBInto's
// entry Attrs), is valid only until the following Next or Resync call.
// A consumer that keeps anything past that copies it out first.
type Reader struct {
	r   *bufio.Reader
	buf []byte // the body buffer every Next reads into
	// hdr is the header scratch; as a field it avoids the per-record
	// heap escape a local array suffers when passed through io.Reader.
	hdr [headerLen]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// bodyChunk is the least the body buffer grows by once it is full.
const bodyChunk = 64 << 10

// Next returns the next record, or io.EOF at a clean end of stream. A
// stream ending mid-record returns ErrTruncated.
func (r *Reader) Next() (Record, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	rec := Record{
		Timestamp: binary.BigEndian.Uint32(hdr[0:4]),
		Type:      binary.BigEndian.Uint16(hdr[4:6]),
		Subtype:   binary.BigEndian.Uint16(hdr[6:8]),
	}
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > maxRecordLength {
		return Record{}, fmt.Errorf("%w: record length %d", ErrBadRecord, length)
	}
	// The buffer grows only as the body's bytes arrive, so a header
	// claiming a large length over a short stream costs what was read,
	// not what was claimed.
	body, want := r.buf[:0], int(length)
	for len(body) < want {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(want-len(body), max(len(body), bodyChunk)))
		}
		n, err := io.ReadFull(r.r, body[len(body):min(want, cap(body))])
		body = body[:len(body)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, fmt.Errorf("%w: body: %v", ErrTruncated, err)
		}
	}
	r.buf = body
	if rec.Type == TypeBGP4MPET {
		if len(body) < 4 {
			return Record{}, fmt.Errorf("%w: BGP4MP_ET microseconds", ErrTruncated)
		}
		rec.Micro = binary.BigEndian.Uint32(body[:4])
		body = body[4:]
	}
	rec.Body = body
	return rec, nil
}

// PlausibleHeader reports whether hdr (at least headerLen bytes) looks
// like the start of an MRT record this package can read: a known type, a
// subtype defined for that type, and a body length under the sanity
// cap. Used by Resync to find a record boundary in a damaged stream;
// the 8 validated header bytes make a false lock on arbitrary payload
// bytes unlikely (and a false lock only costs one more resync).
func PlausibleHeader(hdr []byte) bool {
	if len(hdr) < headerLen {
		return false
	}
	typ := binary.BigEndian.Uint16(hdr[4:6])
	sub := binary.BigEndian.Uint16(hdr[6:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > maxRecordLength {
		return false
	}
	switch typ {
	case TypeTableDumpV2:
		return sub >= SubPeerIndexTable && sub <= SubRIBIPv6MulticastAP && sub != 7
	case TypeBGP4MP, TypeBGP4MPET:
		return sub <= SubMessageAS4LocAP && sub != 2 && sub != 3
	}
	return false
}

// Resync recovers a stream after Next returned an error: it scans
// forward, one byte at a time, for the next plausible MRT record header
// and stops with the reader positioned on it (the following Next reads
// that record). It consumes at most maxScan bytes; maxScan <= 0 uses a
// 1 MiB default. Returns the number of bytes discarded. The error is
// io.EOF when the stream ends before a header is found, or ErrTruncated
// when the scan budget runs out — in both cases the source should be
// abandoned.
func (r *Reader) Resync(maxScan int) (int, error) {
	if maxScan <= 0 {
		maxScan = 1 << 20
	}
	skipped := 0
	for {
		hdr, err := r.r.Peek(headerLen)
		if len(hdr) < headerLen {
			// Fewer than 12 bytes left: no record can start here. Drain
			// the tail so a subsequent Next reports clean EOF.
			d, _ := r.r.Discard(len(hdr))
			skipped += d
			if err == nil || err == io.EOF || err == bufio.ErrBufferFull {
				return skipped, io.EOF
			}
			return skipped, fmt.Errorf("%w: resync: %v", ErrTruncated, err)
		}
		if PlausibleHeader(hdr) {
			return skipped, nil
		}
		if skipped >= maxScan {
			return skipped, fmt.Errorf("%w: no record boundary within %d bytes", ErrTruncated, maxScan)
		}
		if _, err := r.r.Discard(1); err != nil {
			return skipped, io.EOF
		}
		skipped++
	}
}
