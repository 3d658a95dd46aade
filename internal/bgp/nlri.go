package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// NLRI is one reachability entry: a prefix, plus the RFC 7911 path
// identifier when ADD-PATH encoding is in effect (zero otherwise).
type NLRI struct {
	Prefix netip.Prefix
	PathID uint32
}

// appendNLRI encodes one prefix in RFC 4271 NLRI form: length byte then
// ceil(len/8) address bytes, optionally preceded by a 4-byte path ID.
func appendNLRI(dst []byte, n NLRI, addPath bool) ([]byte, error) {
	p := n.Prefix
	if !p.IsValid() {
		return nil, fmt.Errorf("%w: invalid prefix", ErrBadNLRI)
	}
	if addPath {
		dst = binary.BigEndian.AppendUint32(dst, n.PathID)
	}
	bits := p.Bits()
	dst = append(dst, byte(bits))
	nbytes := (bits + 7) / 8
	addr := p.Addr().AsSlice()
	dst = append(dst, addr[:nbytes]...)
	return dst, nil
}

// parseNLRI decodes a run of NLRI entries from b. v6 selects the address
// family (NLRI in the top-level UPDATE fields is always IPv4; MP-BGP NLRI
// family follows the attribute's AFI).
func parseNLRI(b []byte, v6, addPath bool) ([]NLRI, error) {
	return appendParsedNLRI(nil, b, v6, addPath)
}

// appendParsedNLRI decodes a run of NLRI entries from b, appending to
// dst. The address scratch lives on the stack, so steady-state decoding
// into a reused dst is allocation-free.
func appendParsedNLRI(dst []NLRI, b []byte, v6, addPath bool) ([]NLRI, error) {
	out := dst
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	for len(b) > 0 {
		var pathID uint32
		if addPath {
			if len(b) < 5 {
				return nil, fmt.Errorf("%w: ADD-PATH NLRI needs 5+ bytes, have %d", ErrTruncated, len(b))
			}
			pathID = binary.BigEndian.Uint32(b)
			b = b[4:]
		}
		bits := int(b[0])
		b = b[1:]
		if bits > maxBits {
			return nil, fmt.Errorf("%w: prefix length %d exceeds %d", ErrBadNLRI, bits, maxBits)
		}
		nbytes := (bits + 7) / 8
		if len(b) < nbytes {
			return nil, fmt.Errorf("%w: NLRI needs %d address bytes, have %d", ErrTruncated, nbytes, len(b))
		}
		var buf [16]byte
		copy(buf[:], b[:nbytes])
		b = b[nbytes:]
		// Trailing bits beyond the prefix length must be zero for the
		// prefix to be canonical; we mask rather than reject, matching
		// collector behavior.
		if rem := bits % 8; rem != 0 && nbytes > 0 {
			buf[nbytes-1] &= byte(0xff << (8 - rem))
		}
		var addr netip.Addr
		if v6 {
			addr = netip.AddrFrom16(buf)
		} else {
			addr = netip.AddrFrom4([4]byte(buf[:4]))
		}
		out = append(out, NLRI{Prefix: netip.PrefixFrom(addr, bits), PathID: pathID})
	}
	return out, nil
}
