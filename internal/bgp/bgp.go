// Package bgp implements the subset of the BGP-4 wire protocol that the
// policy-atom pipeline needs: UPDATE message encoding and decoding with
// the full path-attribute set observed in public collector data —
// AS_PATH (2- and 4-octet, RFC 6793), MP_REACH/MP_UNREACH for IPv6
// (RFC 4760), communities (RFC 1997) and large communities (RFC 8092),
// and ADD-PATH NLRI encoding (RFC 7911).
//
// The decoder is strict about structure (truncation, bad flags, bad
// lengths are errors) but tolerant about unknown attributes, which are
// preserved as raw bytes — collectors archive whatever their peers send.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Header sizes and limits.
const (
	MarkerLen  = 16
	HeaderLen  = 19
	MaxMsgLen  = 4096
	AS_TRANS   = 23456 // RFC 6793 2-octet placeholder for a 4-octet ASN
	maxPathLen = 1024  // sanity cap on segment ASN counts
)

// Wire-format errors. All decoding errors wrap one of these.
var (
	ErrTruncated  = errors.New("bgp: truncated message")
	ErrBadMarker  = errors.New("bgp: bad marker")
	ErrBadLength  = errors.New("bgp: bad length")
	ErrBadType    = errors.New("bgp: bad message type")
	ErrBadAttr    = errors.New("bgp: malformed path attribute")
	ErrBadNLRI    = errors.New("bgp: malformed NLRI")
	ErrDupAttr    = errors.New("bgp: duplicate path attribute")
	ErrNotAddPath = errors.New("bgp: NLRI not ADD-PATH encoded")
)

// AFI / SAFI values used by MP-BGP.
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2

	SAFIUnicast uint8 = 1
)

// Header is the fixed 19-byte BGP message header.
type Header struct {
	Len  uint16
	Type uint8
}

// marker is the all-ones marker mandated by RFC 4271.
var marker = [MarkerLen]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// ParseHeader decodes the fixed header and validates the marker, length
// bounds, and message type.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, HeaderLen, len(b))
	}
	for i := 0; i < MarkerLen; i++ {
		if b[i] != 0xff {
			return Header{}, ErrBadMarker
		}
	}
	h := Header{
		Len:  binary.BigEndian.Uint16(b[16:18]),
		Type: b[18],
	}
	if h.Len < HeaderLen || h.Len > MaxMsgLen {
		return Header{}, fmt.Errorf("%w: %d", ErrBadLength, h.Len)
	}
	if h.Type < MsgOpen || h.Type > MsgKeepalive {
		return Header{}, fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	return h, nil
}

// putHeader writes the 19-byte header for a message of total length n.
func putHeader(dst []byte, msgType uint8, n int) {
	copy(dst, marker[:])
	binary.BigEndian.PutUint16(dst[16:18], uint16(n))
	dst[18] = msgType
}

// Options controls encoding and decoding behaviors that are negotiated
// per-session in real BGP (and recorded per-peer in MRT dumps).
type Options struct {
	// AS4 selects 4-octet AS number encoding in AS_PATH/AGGREGATOR
	// (RFC 6793 capability negotiated). When false, ASNs above 65535 are
	// encoded as AS_TRANS and a separate AS4_PATH carries the truth.
	AS4 bool
	// AddPath selects RFC 7911 NLRI encoding (a 4-byte path identifier
	// precedes every prefix) for both IPv4 NLRI and MP-BGP NLRI.
	AddPath bool
}
