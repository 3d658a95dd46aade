// Zero-copy record iteration over in-memory archives. BytesReader is
// the byte-slice counterpart of Reader: Next returns Records whose Body
// sub-slices the backing array directly — no bufio layer, no per-record
// copy, zero allocations per record (pinned by TestBytesReaderZeroAlloc).
// Error and Resync
// semantics deliberately mirror Reader so the bgpstream degradation
// machinery (skip accounting, resync budgets, quarantine) behaves
// identically whichever reader backs a source.
package mrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// BytesReader iterates MRT records over an in-memory archive without
// copying. Returned Record.Body values alias data: they stay valid for
// as long as data does, across any number of Next calls, but writing to
// data corrupts every outstanding record.
type BytesReader struct {
	data []byte
	off  int
}

// NewBytesReader returns a BytesReader over data. The reader does not
// copy data; see BytesReader for the aliasing contract.
func NewBytesReader(data []byte) *BytesReader {
	return &BytesReader{data: data}
}

// Offset returns the number of bytes consumed so far.
func (r *BytesReader) Offset() int { return r.off }

// Next returns the next record, or io.EOF at a clean end of stream. A
// stream ending mid-record returns ErrTruncated. Consumed-byte
// positioning on every error path matches Reader.Next over the same
// bytes, so Resync recovers from the same place either way.
func (r *BytesReader) Next() (Record, error) {
	rest := r.data[r.off:]
	if len(rest) == 0 {
		return Record{}, io.EOF
	}
	if len(rest) < headerLen {
		// Reader's io.ReadFull consumes the partial header before
		// failing; mirror that so skip accounting matches.
		r.off = len(r.data)
		return Record{}, fmt.Errorf("%w: header: %v", ErrTruncated, io.ErrUnexpectedEOF)
	}
	hdr := rest[:headerLen]
	rec := Record{
		Timestamp: binary.BigEndian.Uint32(hdr[0:4]),
		Type:      binary.BigEndian.Uint16(hdr[4:6]),
		Subtype:   binary.BigEndian.Uint16(hdr[6:8]),
	}
	length := binary.BigEndian.Uint32(hdr[8:12])
	r.off += headerLen
	if length > maxRecordLength {
		return Record{}, fmt.Errorf("%w: record length %d", ErrBadRecord, length)
	}
	if uint32(len(rest)-headerLen) < length {
		r.off = len(r.data)
		return Record{}, fmt.Errorf("%w: body: %v", ErrTruncated, io.ErrUnexpectedEOF)
	}
	body := rest[headerLen : headerLen+int(length) : headerLen+int(length)]
	r.off += int(length)
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

// Resync recovers after Next returned an error, with the same contract
// as Reader.Resync: scan forward one byte at a time for the next
// plausible record header, leave the reader positioned on it, and
// return the number of bytes discarded. maxScan <= 0 uses a 1 MiB
// default; io.EOF means the stream ended first, ErrTruncated means the
// scan budget ran out.
func (r *BytesReader) Resync(maxScan int) (int, error) {
	if maxScan <= 0 {
		maxScan = 1 << 20
	}
	skipped := 0
	for {
		rest := r.data[r.off:]
		if len(rest) < headerLen {
			// Fewer than 12 bytes left: no record can start here. Drain
			// the tail so a subsequent Next reports clean EOF.
			r.off = len(r.data)
			return skipped + len(rest), io.EOF
		}
		if PlausibleHeader(rest[:headerLen]) {
			return skipped, nil
		}
		if skipped >= maxScan {
			return skipped, fmt.Errorf("%w: no record boundary within %d bytes", ErrTruncated, maxScan)
		}
		r.off++
		skipped++
	}
}

// countRecords scans data's record headers and returns the number of
// complete, well-formed records before the first damage (if any). One
// pass over headers only — bodies are skipped, not touched.
func countRecords(data []byte) int {
	n, off := 0, 0
	for len(data)-off >= headerLen {
		length := binary.BigEndian.Uint32(data[off+8 : off+12])
		if length > maxRecordLength {
			break
		}
		end := off + headerLen + int(length)
		if end > len(data) {
			break
		}
		n++
		off = end
	}
	return n
}

// ReadAll drains the reader, returning every record. When rd is a
// *bytes.Reader the archive is decoded in place: a first-pass header
// scan sizes the output slice exactly, and record bodies alias one
// backing buffer instead of being copied record by record.
func ReadAll(rd io.Reader) ([]Record, error) {
	if br, ok := rd.(*bytes.Reader); ok {
		data := make([]byte, br.Len())
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		out := make([]Record, 0, countRecords(data))
		r := NewBytesReader(data)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, rec)
		}
	}
	r := NewReader(rd)
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
