package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/aspath"
)

// AttrType is a BGP path attribute type code.
type AttrType uint8

// Path attribute type codes.
const (
	AttrTypeOrigin           AttrType = 1
	AttrTypeASPath           AttrType = 2
	AttrTypeNextHop          AttrType = 3
	AttrTypeMED              AttrType = 4
	AttrTypeLocalPref        AttrType = 5
	AttrTypeAtomicAggregate  AttrType = 6
	AttrTypeAggregator       AttrType = 7
	AttrTypeCommunities      AttrType = 8
	AttrTypeMPReach          AttrType = 14
	AttrTypeMPUnreach        AttrType = 15
	AttrTypeAS4Path          AttrType = 17
	AttrTypeAS4Aggregator    AttrType = 18
	AttrTypeLargeCommunities AttrType = 32
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// Origin values.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// Attr is a decoded path attribute.
type Attr interface {
	Type() AttrType
}

// Origin is the ORIGIN attribute.
type Origin uint8

// Type implements Attr.
func (Origin) Type() AttrType { return AttrTypeOrigin }

// ASPath is the AS_PATH attribute.
type ASPath struct{ Path aspath.Path }

// Type implements Attr.
func (ASPath) Type() AttrType { return AttrTypeASPath }

// NextHop is the NEXT_HOP attribute (IPv4 only; IPv6 next hops travel in
// MP_REACH_NLRI).
type NextHop netip.Addr

// Type implements Attr.
func (NextHop) Type() AttrType { return AttrTypeNextHop }

// MED is MULTI_EXIT_DISC.
type MED uint32

// Type implements Attr.
func (MED) Type() AttrType { return AttrTypeMED }

// LocalPref is LOCAL_PREF.
type LocalPref uint32

// Type implements Attr.
func (LocalPref) Type() AttrType { return AttrTypeLocalPref }

// AtomicAggregate is the zero-length ATOMIC_AGGREGATE marker.
type AtomicAggregate struct{}

// Type implements Attr.
func (AtomicAggregate) Type() AttrType { return AttrTypeAtomicAggregate }

// Aggregator is AGGREGATOR (the ASN width follows the session's AS4
// option; AS4Aggregator carries the 4-octet truth on 2-octet sessions).
type Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// Type implements Attr.
func (Aggregator) Type() AttrType { return AttrTypeAggregator }

// Communities is the RFC 1997 COMMUNITIES attribute; each value packs
// (ASN<<16 | value).
type Communities []uint32

// Type implements Attr.
func (Communities) Type() AttrType { return AttrTypeCommunities }

// LargeCommunity is one RFC 8092 value.
type LargeCommunity struct {
	Global uint32
	Local1 uint32
	Local2 uint32
}

// LargeCommunities is the RFC 8092 LARGE_COMMUNITY attribute.
type LargeCommunities []LargeCommunity

// Type implements Attr.
func (LargeCommunities) Type() AttrType { return AttrTypeLargeCommunities }

// MPReach is MP_REACH_NLRI (RFC 4760).
type MPReach struct {
	AFI     uint16
	SAFI    uint8
	NextHop []byte
	NLRI    []NLRI
}

// Type implements Attr.
func (MPReach) Type() AttrType { return AttrTypeMPReach }

// MPUnreach is MP_UNREACH_NLRI (RFC 4760).
type MPUnreach struct {
	AFI  uint16
	SAFI uint8
	NLRI []NLRI
}

// Type implements Attr.
func (MPUnreach) Type() AttrType { return AttrTypeMPUnreach }

// AS4Path carries the 4-octet AS_PATH on 2-octet sessions (RFC 6793).
type AS4Path struct{ Path aspath.Path }

// Type implements Attr.
func (AS4Path) Type() AttrType { return AttrTypeAS4Path }

// AS4Aggregator carries the 4-octet AGGREGATOR on 2-octet sessions.
type AS4Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// Type implements Attr.
func (AS4Aggregator) Type() AttrType { return AttrTypeAS4Aggregator }

// Unknown preserves an attribute this package does not interpret.
type Unknown struct {
	Flags    uint8
	TypeCode AttrType
	Data     []byte
}

// Type implements Attr.
func (u Unknown) Type() AttrType { return u.TypeCode }

// --- AS path segment codec ---

// parseASPathData decodes AS_PATH segment data; four selects 4-octet ASNs.
func parseASPathData(b []byte, four bool) (aspath.Path, error) {
	var p aspath.Path
	asnLen := 2
	if four {
		asnLen = 4
	}
	for len(b) > 0 {
		if len(b) < 2 {
			return aspath.Path{}, fmt.Errorf("%w: AS_PATH segment header", ErrTruncated)
		}
		segType := aspath.SegmentType(b[0])
		count := int(b[1])
		b = b[2:]
		if !segType.Valid() {
			return aspath.Path{}, fmt.Errorf("%w: AS_PATH segment type %d", ErrBadAttr, segType)
		}
		if count == 0 || count > maxPathLen {
			return aspath.Path{}, fmt.Errorf("%w: AS_PATH segment count %d", ErrBadAttr, count)
		}
		need := count * asnLen
		if len(b) < need {
			return aspath.Path{}, fmt.Errorf("%w: AS_PATH segment needs %d bytes, have %d", ErrTruncated, need, len(b))
		}
		asns := make([]uint32, count)
		for i := 0; i < count; i++ {
			if four {
				asns[i] = binary.BigEndian.Uint32(b[i*4:])
			} else {
				asns[i] = uint32(binary.BigEndian.Uint16(b[i*2:]))
			}
		}
		b = b[need:]
		p.Segments = append(p.Segments, aspath.Segment{Type: segType, ASNs: asns})
	}
	return p, nil
}

// appendASPathData encodes AS_PATH segment data; four selects 4-octet
// ASNs. On 2-octet encoding, ASNs above 65535 become AS_TRANS.
func appendASPathData(dst []byte, p aspath.Path, four bool) ([]byte, error) {
	for _, s := range p.Segments {
		if !s.Type.Valid() {
			return nil, fmt.Errorf("%w: segment type %d", ErrBadAttr, s.Type)
		}
		if len(s.ASNs) == 0 || len(s.ASNs) > 255 {
			return nil, fmt.Errorf("%w: segment with %d ASNs", ErrBadAttr, len(s.ASNs))
		}
		dst = append(dst, byte(s.Type), byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			if four {
				dst = binary.BigEndian.AppendUint32(dst, a)
			} else {
				if a > 0xffff {
					a = AS_TRANS
				}
				dst = binary.BigEndian.AppendUint16(dst, uint16(a))
			}
		}
	}
	return dst, nil
}

// pathNeedsAS4 reports whether any ASN in the path does not fit in 2 octets.
func pathNeedsAS4(p aspath.Path) bool {
	for _, s := range p.Segments {
		for _, a := range s.ASNs {
			if a > 0xffff {
				return true
			}
		}
	}
	return false
}

// --- attribute codec ---

// attrSpec describes the canonical flags for the attributes we emit.
var attrFlags = map[AttrType]uint8{
	AttrTypeOrigin:           flagTransitive,
	AttrTypeASPath:           flagTransitive,
	AttrTypeNextHop:          flagTransitive,
	AttrTypeMED:              flagOptional,
	AttrTypeLocalPref:        flagTransitive,
	AttrTypeAtomicAggregate:  flagTransitive,
	AttrTypeAggregator:       flagOptional | flagTransitive,
	AttrTypeCommunities:      flagOptional | flagTransitive,
	AttrTypeMPReach:          flagOptional,
	AttrTypeMPUnreach:        flagOptional,
	AttrTypeAS4Path:          flagOptional | flagTransitive,
	AttrTypeAS4Aggregator:    flagOptional | flagTransitive,
	AttrTypeLargeCommunities: flagOptional | flagTransitive,
}

// appendAttr encodes one attribute with canonical flags, choosing the
// extended-length form when the payload exceeds 255 bytes. The body is
// encoded in place after a short-form header; on overflow the body is
// shifted one byte for the extended length — no per-attribute scratch.
func appendAttr(dst []byte, a Attr, opt Options) ([]byte, error) {
	if v, ok := a.(Unknown); ok {
		if len(v.Data) > 0xffff {
			return nil, fmt.Errorf("%w: attribute %d payload %d bytes exceeds extended length", ErrBadAttr, v.TypeCode, len(v.Data))
		}
		flags := v.Flags &^ flagExtLen
		if len(v.Data) > 255 {
			flags |= flagExtLen
		}
		dst = append(dst, flags, byte(v.TypeCode))
		if flags&flagExtLen != 0 {
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Data)))
		} else {
			dst = append(dst, byte(len(v.Data)))
		}
		return append(dst, v.Data...), nil
	}

	flags := attrFlags[a.Type()]
	dst = append(dst, flags, byte(a.Type()), 0) // short-form length, patched below
	bodyStart := len(dst)

	var err error
	switch v := a.(type) {
	case Origin:
		dst = append(dst, byte(v))
	case ASPath:
		dst, err = appendASPathData(dst, v.Path, opt.AS4)
	case NextHop:
		addr := netip.Addr(v)
		if !addr.Is4() {
			return nil, fmt.Errorf("%w: NEXT_HOP must be IPv4", ErrBadAttr)
		}
		b4 := addr.As4()
		dst = append(dst, b4[:]...)
	case MED:
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	case LocalPref:
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	case AtomicAggregate:
		// zero-length body
	case Aggregator:
		if !v.Addr.Is4() {
			return nil, fmt.Errorf("%w: AGGREGATOR address must be IPv4", ErrBadAttr)
		}
		if opt.AS4 {
			dst = binary.BigEndian.AppendUint32(dst, v.ASN)
		} else {
			asn := v.ASN
			if asn > 0xffff {
				asn = AS_TRANS
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(asn))
		}
		b4 := v.Addr.As4()
		dst = append(dst, b4[:]...)
	case Communities:
		for _, c := range v {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	case LargeCommunities:
		for _, c := range v {
			dst = binary.BigEndian.AppendUint32(dst, c.Global)
			dst = binary.BigEndian.AppendUint32(dst, c.Local1)
			dst = binary.BigEndian.AppendUint32(dst, c.Local2)
		}
	case MPReach:
		if len(v.NextHop) > 255 {
			return nil, fmt.Errorf("%w: MP_REACH next hop %d bytes", ErrBadAttr, len(v.NextHop))
		}
		dst = binary.BigEndian.AppendUint16(dst, v.AFI)
		dst = append(dst, v.SAFI, byte(len(v.NextHop)))
		dst = append(dst, v.NextHop...)
		dst = append(dst, 0) // reserved SNPA count
		for _, n := range v.NLRI {
			dst, err = appendNLRI(dst, n, opt.AddPath)
			if err != nil {
				return nil, err
			}
		}
	case MPUnreach:
		dst = binary.BigEndian.AppendUint16(dst, v.AFI)
		dst = append(dst, v.SAFI)
		for _, n := range v.NLRI {
			dst, err = appendNLRI(dst, n, opt.AddPath)
			if err != nil {
				return nil, err
			}
		}
	case AS4Path:
		dst, err = appendASPathData(dst, v.Path, true)
	case AS4Aggregator:
		if !v.Addr.Is4() {
			return nil, fmt.Errorf("%w: AS4_AGGREGATOR address must be IPv4", ErrBadAttr)
		}
		dst = binary.BigEndian.AppendUint32(dst, v.ASN)
		b4 := v.Addr.As4()
		dst = append(dst, b4[:]...)
	default:
		return nil, fmt.Errorf("%w: cannot encode %T", ErrBadAttr, a)
	}
	if err != nil {
		return nil, err
	}

	blen := len(dst) - bodyStart
	if blen > 0xffff {
		// Bare attribute blocks (MarshalAttributes for TABLE_DUMP_V2 RIB
		// entries) have no message-size cap upstream, so the extended
		// length must be range-checked here or it truncates on the wire.
		return nil, fmt.Errorf("%w: attribute %d body %d bytes exceeds extended length", ErrBadAttr, a.Type(), blen)
	}
	if blen > 255 {
		// Extended length: make room for the second length byte and
		// shift the body right by one.
		dst = append(dst, 0)
		copy(dst[bodyStart+1:], dst[bodyStart:len(dst)-1])
		dst[bodyStart-3] = flags | flagExtLen
		binary.BigEndian.PutUint16(dst[bodyStart-1:], uint16(blen))
	} else {
		dst[bodyStart-1] = byte(blen)
	}
	return dst, nil
}

// parseAttrs decodes a path-attribute block, appending to dst (which
// may be nil, or a reused slice truncated to length 0).
func parseAttrs(dst []Attr, b []byte, opt Options) ([]Attr, error) {
	out := dst
	var seen [256]bool
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, fmt.Errorf("%w: attribute header", ErrTruncated)
		}
		flags := b[0]
		typ := AttrType(b[1])
		var alen int
		var hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: extended attribute header", ErrTruncated)
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			hdr = 4
		} else {
			alen = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+alen {
			return nil, fmt.Errorf("%w: attribute %d needs %d bytes, have %d", ErrTruncated, typ, alen, len(b)-hdr)
		}
		data := b[hdr : hdr+alen]
		b = b[hdr+alen:]
		if seen[typ] {
			return nil, fmt.Errorf("%w: type %d", ErrDupAttr, typ)
		}
		seen[typ] = true
		a, err := parseAttrBody(flags, typ, data, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func parseAttrBody(flags uint8, typ AttrType, data []byte, opt Options) (Attr, error) {
	switch typ {
	case AttrTypeOrigin:
		if len(data) != 1 {
			return nil, fmt.Errorf("%w: ORIGIN length %d", ErrBadAttr, len(data))
		}
		if data[0] > OriginIncomplete {
			return nil, fmt.Errorf("%w: ORIGIN value %d", ErrBadAttr, data[0])
		}
		return Origin(data[0]), nil
	case AttrTypeASPath:
		p, err := parseASPathData(data, opt.AS4)
		if err != nil {
			return nil, err
		}
		return ASPath{Path: p}, nil
	case AttrTypeNextHop:
		if len(data) != 4 {
			return nil, fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttr, len(data))
		}
		return NextHop(netip.AddrFrom4([4]byte(data))), nil
	case AttrTypeMED:
		if len(data) != 4 {
			return nil, fmt.Errorf("%w: MED length %d", ErrBadAttr, len(data))
		}
		return MED(binary.BigEndian.Uint32(data)), nil
	case AttrTypeLocalPref:
		if len(data) != 4 {
			return nil, fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttr, len(data))
		}
		return LocalPref(binary.BigEndian.Uint32(data)), nil
	case AttrTypeAtomicAggregate:
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrBadAttr, len(data))
		}
		return AtomicAggregate{}, nil
	case AttrTypeAggregator:
		want := 6
		if opt.AS4 {
			want = 8
		}
		if len(data) != want {
			return nil, fmt.Errorf("%w: AGGREGATOR length %d", ErrBadAttr, len(data))
		}
		var asn uint32
		if opt.AS4 {
			asn = binary.BigEndian.Uint32(data)
			data = data[4:]
		} else {
			asn = uint32(binary.BigEndian.Uint16(data))
			data = data[2:]
		}
		return Aggregator{ASN: asn, Addr: netip.AddrFrom4([4]byte(data))}, nil
	case AttrTypeCommunities:
		if len(data)%4 != 0 {
			return nil, fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttr, len(data))
		}
		cs := make(Communities, len(data)/4)
		for i := range cs {
			cs[i] = binary.BigEndian.Uint32(data[i*4:])
		}
		return cs, nil
	case AttrTypeLargeCommunities:
		if len(data)%12 != 0 {
			return nil, fmt.Errorf("%w: LARGE_COMMUNITY length %d", ErrBadAttr, len(data))
		}
		cs := make(LargeCommunities, len(data)/12)
		for i := range cs {
			cs[i] = LargeCommunity{
				Global: binary.BigEndian.Uint32(data[i*12:]),
				Local1: binary.BigEndian.Uint32(data[i*12+4:]),
				Local2: binary.BigEndian.Uint32(data[i*12+8:]),
			}
		}
		return cs, nil
	case AttrTypeMPReach:
		if len(data) < 5 {
			return nil, fmt.Errorf("%w: MP_REACH header", ErrTruncated)
		}
		m := MPReach{AFI: binary.BigEndian.Uint16(data), SAFI: data[2]}
		nhLen := int(data[3])
		data = data[4:]
		if len(data) < nhLen+1 {
			return nil, fmt.Errorf("%w: MP_REACH next hop", ErrTruncated)
		}
		m.NextHop = append([]byte(nil), data[:nhLen]...)
		data = data[nhLen:]
		// one reserved byte (SNPA count, must be 0 post-RFC4760)
		data = data[1:]
		nlri, err := parseNLRI(data, m.AFI == AFIIPv6, opt.AddPath)
		if err != nil {
			return nil, err
		}
		m.NLRI = nlri
		return m, nil
	case AttrTypeMPUnreach:
		if len(data) < 3 {
			return nil, fmt.Errorf("%w: MP_UNREACH header", ErrTruncated)
		}
		m := MPUnreach{AFI: binary.BigEndian.Uint16(data), SAFI: data[2]}
		nlri, err := parseNLRI(data[3:], m.AFI == AFIIPv6, opt.AddPath)
		if err != nil {
			return nil, err
		}
		m.NLRI = nlri
		return m, nil
	case AttrTypeAS4Path:
		p, err := parseASPathData(data, true)
		if err != nil {
			return nil, err
		}
		return AS4Path{Path: p}, nil
	case AttrTypeAS4Aggregator:
		if len(data) != 8 {
			return nil, fmt.Errorf("%w: AS4_AGGREGATOR length %d", ErrBadAttr, len(data))
		}
		return AS4Aggregator{
			ASN:  binary.BigEndian.Uint32(data),
			Addr: netip.AddrFrom4([4]byte(data[4:8])),
		}, nil
	default:
		return Unknown{Flags: flags, TypeCode: typ, Data: append([]byte(nil), data...)}, nil
	}
}
