package mrt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Peer is one entry of a PEER_INDEX_TABLE: a collector's BGP neighbor.
type Peer struct {
	BGPID netip.Addr // peer's BGP identifier (always 4 bytes on the wire)
	Addr  netip.Addr
	ASN   uint32
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record: it names
// the collector and indexes the peers that subsequent RIB records
// reference by position.
type PeerIndexTable struct {
	CollectorID netip.Addr
	ViewName    string
	Peers       []Peer
}

// peer-type flag bits (RFC 6396 §4.3.1).
const (
	peerTypeIPv6 = 0x01
	peerTypeAS4  = 0x02
)

// Marshal encodes the peer index table body.
func (t *PeerIndexTable) Marshal() ([]byte, error) {
	if !t.CollectorID.Is4() {
		return nil, fmt.Errorf("%w: collector ID must be IPv4", ErrBadRecord)
	}
	if len(t.ViewName) > 0xffff || len(t.Peers) > 0xffff {
		return nil, fmt.Errorf("%w: view name or peer count too large", ErrBadRecord)
	}
	id := t.CollectorID.As4()
	out := append([]byte(nil), id[:]...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(t.ViewName)))
	out = append(out, t.ViewName...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		var ptype byte = peerTypeAS4 // always emit 4-octet ASNs
		if p.Addr.Is6() && !p.Addr.Is4In6() {
			ptype |= peerTypeIPv6
		}
		out = append(out, ptype)
		if !p.BGPID.Is4() {
			return nil, fmt.Errorf("%w: peer BGP ID must be IPv4", ErrBadRecord)
		}
		bid := p.BGPID.As4()
		out = append(out, bid[:]...)
		if ptype&peerTypeIPv6 != 0 {
			a := p.Addr.As16()
			out = append(out, a[:]...)
		} else {
			a := p.Addr.Unmap().As4()
			out = append(out, a[:]...)
		}
		out = binary.BigEndian.AppendUint32(out, p.ASN)
	}
	return out, nil
}

// ParsePeerIndexTable decodes a PEER_INDEX_TABLE body.
func ParsePeerIndexTable(b []byte) (*PeerIndexTable, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("%w: peer index header", ErrTruncated)
	}
	t := &PeerIndexTable{CollectorID: netip.AddrFrom4([4]byte(b[:4]))}
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < nameLen+2 {
		return nil, fmt.Errorf("%w: view name", ErrTruncated)
	}
	t.ViewName = string(b[:nameLen])
	b = b[nameLen:]
	count := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	t.Peers = make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("%w: peer %d", ErrTruncated, i)
		}
		ptype := b[0]
		p := Peer{BGPID: netip.AddrFrom4([4]byte(b[1:5]))}
		b = b[5:]
		if ptype&peerTypeIPv6 != 0 {
			if len(b) < 16 {
				return nil, fmt.Errorf("%w: peer %d address", ErrTruncated, i)
			}
			p.Addr = netip.AddrFrom16([16]byte(b[:16]))
			b = b[16:]
		} else {
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: peer %d address", ErrTruncated, i)
			}
			p.Addr = netip.AddrFrom4([4]byte(b[:4]))
			b = b[4:]
		}
		if ptype&peerTypeAS4 != 0 {
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: peer %d ASN", ErrTruncated, i)
			}
			p.ASN = binary.BigEndian.Uint32(b[:4])
			b = b[4:]
		} else {
			if len(b) < 2 {
				return nil, fmt.Errorf("%w: peer %d ASN", ErrTruncated, i)
			}
			p.ASN = uint32(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		t.Peers = append(t.Peers, p)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after peer table", ErrBadRecord, len(b))
	}
	return t, nil
}

// RIBEntry is one peer's route for the RIB record's prefix.
type RIBEntry struct {
	PeerIndex  uint16
	Originated uint32
	PathID     uint32 // ADD-PATH subtypes only
	Attrs      []byte // raw path-attribute block, aliasing the record body (bgp.AppendAttributes decodes)
}

// RIB is a TABLE_DUMP_V2 RIB record: every peer's route for one prefix.
type RIB struct {
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
	AddPath  bool
}

// Subtype returns the TABLE_DUMP_V2 subtype matching the RIB's family
// and ADD-PATH mode.
func (r *RIB) Subtype() uint16 {
	v6 := r.Prefix.Addr().Is6() && !r.Prefix.Addr().Is4In6()
	switch {
	case v6 && r.AddPath:
		return SubRIBIPv6UnicastAP
	case v6:
		return SubRIBIPv6Unicast
	case r.AddPath:
		return SubRIBIPv4UnicastAP
	default:
		return SubRIBIPv4Unicast
	}
}

// Marshal encodes the RIB record body.
func (r *RIB) Marshal() ([]byte, error) {
	return r.AppendTo(nil)
}

// AppendTo appends the RIB record body to dst, so a caller encoding
// many records can reuse one buffer. On error dst is returned
// unextended.
func (r *RIB) AppendTo(dst []byte) ([]byte, error) {
	if !r.Prefix.IsValid() {
		return dst, fmt.Errorf("%w: invalid prefix", ErrBadRecord)
	}
	if len(r.Entries) > 0xffff {
		return dst, fmt.Errorf("%w: %d entries", ErrBadRecord, len(r.Entries))
	}
	out := binary.BigEndian.AppendUint32(dst, r.Sequence)
	bits := r.Prefix.Bits()
	out = append(out, byte(bits))
	if a := r.Prefix.Addr(); a.Is4() {
		b := a.As4()
		out = append(out, b[:(bits+7)/8]...)
	} else {
		b := a.As16()
		out = append(out, b[:(bits+7)/8]...)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		out = binary.BigEndian.AppendUint16(out, e.PeerIndex)
		out = binary.BigEndian.AppendUint32(out, e.Originated)
		if r.AddPath {
			out = binary.BigEndian.AppendUint32(out, e.PathID)
		}
		if len(e.Attrs) > 0xffff {
			return dst, fmt.Errorf("%w: attribute block %d bytes", ErrBadRecord, len(e.Attrs))
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(e.Attrs)))
		out = append(out, e.Attrs...)
	}
	return out, nil
}

// ParseRIB decodes a RIB record body into a new RIB. The subtype
// selects the family and ADD-PATH mode. Entry attribute blocks alias b,
// as ParseRIBInto documents.
func ParseRIB(subtype uint16, b []byte) (*RIB, error) {
	r := new(RIB)
	if err := ParseRIBInto(r, subtype, b); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseRIBInto decodes a RIB record body into r, reusing the capacity of
// r.Entries, so a caller looping over records decodes without
// per-record allocations. Each entry's Attrs is a capacity-capped
// sub-slice of b, valid for as long as b is. On error r is left in an
// undefined state.
func ParseRIBInto(r *RIB, subtype uint16, b []byte) error {
	var v6, addPath bool
	switch subtype {
	case SubRIBIPv4Unicast, SubRIBIPv4Multicast:
	case SubRIBIPv6Unicast, SubRIBIPv6Multicast:
		v6 = true
	case SubRIBIPv4UnicastAP, SubRIBIPv4MulticastAP:
		addPath = true
	case SubRIBIPv6UnicastAP, SubRIBIPv6MulticastAP:
		v6, addPath = true, true
	default:
		return fmt.Errorf("%w: TABLE_DUMP_V2 subtype %d", ErrUnsupported, subtype)
	}
	if len(b) < 5 {
		return fmt.Errorf("%w: RIB header", ErrTruncated)
	}
	r.Sequence, r.AddPath = binary.BigEndian.Uint32(b[:4]), addPath
	bits := int(b[4])
	b = b[5:]
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return fmt.Errorf("%w: prefix length %d", ErrBadRecord, bits)
	}
	nbytes := (bits + 7) / 8
	if len(b) < nbytes+2 {
		return fmt.Errorf("%w: RIB prefix", ErrTruncated)
	}
	var buf [16]byte
	copy(buf[:], b[:nbytes])
	addr := netip.AddrFrom16(buf)
	if !v6 {
		addr = netip.AddrFrom4([4]byte(buf[:4]))
	}
	r.Prefix = netip.PrefixFrom(addr, bits)
	b = b[nbytes:]
	count := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	r.Entries = r.Entries[:0]
	for i := 0; i < count; i++ {
		need := 8
		if addPath {
			need += 4
		}
		if len(b) < need {
			return fmt.Errorf("%w: RIB entry %d", ErrTruncated, i)
		}
		e := RIBEntry{
			PeerIndex:  binary.BigEndian.Uint16(b[:2]),
			Originated: binary.BigEndian.Uint32(b[2:6]),
		}
		b = b[6:]
		if addPath {
			e.PathID = binary.BigEndian.Uint32(b[:4])
			b = b[4:]
		}
		alen := int(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
		if len(b) < alen {
			return fmt.Errorf("%w: RIB entry %d attributes", ErrTruncated, i)
		}
		e.Attrs = b[:alen:alen]
		b = b[alen:]
		r.Entries = append(r.Entries, e)
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after RIB entries", ErrBadRecord, len(b))
	}
	return nil
}
