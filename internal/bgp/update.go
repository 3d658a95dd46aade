package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/aspath"
)

// Update is a decoded BGP UPDATE message. Withdrawn and Announced hold
// the top-level IPv4 fields; IPv6 reachability travels inside MPReach /
// MPUnreach attributes.
type Update struct {
	Withdrawn []NLRI
	Attrs     []Attr
	Announced []NLRI
}

// Attr returns the first attribute of the given type, or nil.
func (u *Update) Attr(t AttrType) Attr {
	for _, a := range u.Attrs {
		if a.Type() == t {
			return a
		}
	}
	return nil
}

// ASPathAttr returns the effective AS path, reconciling AS4_PATH with
// AS_PATH per RFC 6793 §4.2.3 when the session used 2-octet encoding:
// if AS4_PATH is present and no longer than AS_PATH, the trailing
// portion of AS_PATH is replaced by AS4_PATH (the leading AS_TRANS
// hops contributed by old speakers are kept).
func (u *Update) ASPathAttr() (aspath.Path, bool) {
	ap, ok := u.Attr(AttrTypeASPath).(ASPath)
	if !ok {
		return aspath.Path{}, false
	}
	a4, ok4 := u.Attr(AttrTypeAS4Path).(AS4Path)
	if !ok4 {
		return ap.Path, true
	}
	return reconcileAS4(ap.Path, a4.Path), true
}

// reconcileAS4 merges AS_PATH with AS4_PATH per RFC 6793.
func reconcileAS4(path, path4 aspath.Path) aspath.Path {
	n, n4 := path.Len(), path4.Len()
	if n4 > n {
		// AS4_PATH longer than AS_PATH: ignore it (RFC 6793 §4.2.3).
		return path
	}
	keep := n - n4
	// Take the first `keep` path units from AS_PATH, then all of AS4_PATH.
	var out aspath.Path
	for _, s := range path.Segments {
		if keep == 0 {
			break
		}
		switch s.Type {
		case aspath.SegSequence, aspath.SegConfedSequence:
			if len(s.ASNs) <= keep {
				out.Segments = append(out.Segments, s)
				keep -= len(s.ASNs)
			} else {
				out.Segments = append(out.Segments, aspath.Segment{Type: s.Type, ASNs: s.ASNs[:keep]})
				keep = 0
			}
		case aspath.SegSet, aspath.SegConfedSet:
			out.Segments = append(out.Segments, s)
			keep--
		}
	}
	out.Segments = append(out.Segments, path4.Segments...)
	return out
}

// Marshal encodes the UPDATE into a full BGP message (header included).
// If the path contains 4-octet ASNs and opt.AS4 is false, an AS4_PATH
// attribute is appended automatically unless one is already present.
func (u *Update) Marshal(opt Options) ([]byte, error) {
	return u.AppendMessage(nil, opt)
}

// AppendMessage appends the encoded UPDATE (header included) to dst and
// returns the extended slice. Encoding is single-pass: section lengths
// are back-patched, so a caller looping over messages can reuse one
// scratch buffer and encode with zero per-message allocations. A
// section past 65535 bytes wraps its length field, but the message
// then exceeds MaxMsgLen and is rejected.
func (u *Update) AppendMessage(dst []byte, opt Options) ([]byte, error) {
	start := len(dst)
	var zero [HeaderLen]byte
	dst = append(dst, zero[:]...)

	var err error
	dst = append(dst, 0, 0) // withdrawn routes length, patched below
	wStart := len(dst)
	for _, n := range u.Withdrawn {
		if !n.Prefix.Addr().Is4() {
			return nil, fmt.Errorf("%w: IPv6 prefix in top-level withdrawn", ErrBadNLRI)
		}
		dst, err = appendNLRI(dst, n, opt.AddPath)
		if err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint16(dst[wStart-2:], uint16(len(dst)-wStart))

	dst = append(dst, 0, 0) // total path attribute length, patched below
	aStart := len(dst)
	for _, a := range u.Attrs {
		dst, err = appendAttr(dst, a, opt)
		if err != nil {
			return nil, err
		}
	}
	if !opt.AS4 {
		// 2-octet session with 4-octet ASNs in the path: append AS4_PATH
		// automatically (last, as routers do) unless one is present.
		if ap, ok := u.Attr(AttrTypeASPath).(ASPath); ok && pathNeedsAS4(ap.Path) {
			if u.Attr(AttrTypeAS4Path) == nil {
				dst, err = appendAttr(dst, AS4Path{Path: ap.Path}, opt)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	binary.BigEndian.PutUint16(dst[aStart-2:], uint16(len(dst)-aStart))

	for _, n := range u.Announced {
		if !n.Prefix.Addr().Is4() {
			return nil, fmt.Errorf("%w: IPv6 prefix in top-level NLRI", ErrBadNLRI)
		}
		dst, err = appendNLRI(dst, n, opt.AddPath)
		if err != nil {
			return nil, err
		}
	}

	total := len(dst) - start
	if total > MaxMsgLen {
		return nil, fmt.Errorf("%w: message size %d exceeds %d", ErrBadLength, total, MaxMsgLen)
	}
	putHeader(dst[start:], MsgUpdate, total)
	return dst, nil
}

// ParseUpdateInto decodes a full BGP UPDATE message into u, reusing the
// capacity of u's slices — a caller looping over messages can decode
// with near-zero per-message allocations. On error u is left in an
// undefined state.
func ParseUpdateInto(u *Update, b []byte, opt Options) error {
	return ParseUpdateWith(u, b, opt, nil)
}

// ParseUpdateWith is ParseUpdateInto with the raw path-attribute block
// (aliasing b) handed to a non-nil attrs instead of parsed into u.Attrs.
// attrs runs between the withdrawn routes and the NLRI, so a malformed
// message fails with the error ParseUpdateInto would return.
func ParseUpdateWith(u *Update, b []byte, opt Options, attrs func(block []byte) error) error {
	h, err := ParseHeader(b)
	if err != nil {
		return err
	}
	if h.Type != MsgUpdate {
		return fmt.Errorf("%w: got type %d, want UPDATE", ErrBadType, h.Type)
	}
	if int(h.Len) > len(b) {
		return fmt.Errorf("%w: header claims %d bytes, have %d", ErrTruncated, h.Len, len(b))
	}
	return parseUpdateBody(u, b[HeaderLen:h.Len], opt, attrs)
}

// parseUpdateBody decodes the UPDATE payload (header stripped) into u.
// MRT BGP4MP records carry full messages; TABLE_DUMP_V2 RIB entries
// carry bare attribute blocks, which use parseAttrs directly.
func parseUpdateBody(u *Update, b []byte, opt Options, attrs func([]byte) error) error {
	u.Withdrawn = u.Withdrawn[:0]
	u.Attrs = u.Attrs[:0]
	u.Announced = u.Announced[:0]
	if len(b) < 2 {
		return fmt.Errorf("%w: withdrawn length", ErrTruncated)
	}
	wlen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < wlen {
		return fmt.Errorf("%w: withdrawn routes", ErrTruncated)
	}
	var err error
	if wlen > 0 {
		u.Withdrawn, err = appendParsedNLRI(u.Withdrawn, b[:wlen], false, opt.AddPath)
		if err != nil {
			return err
		}
	}
	b = b[wlen:]
	if len(b) < 2 {
		return fmt.Errorf("%w: attribute length", ErrTruncated)
	}
	alen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < alen {
		return fmt.Errorf("%w: path attributes", ErrTruncated)
	}
	switch {
	case attrs != nil:
		err = attrs(b[:alen])
	case alen > 0:
		u.Attrs, err = parseAttrs(u.Attrs, b[:alen], opt)
	}
	if err != nil {
		return err
	}
	b = b[alen:]
	if len(b) > 0 {
		u.Announced, err = appendParsedNLRI(u.Announced, b, false, opt.AddPath)
		if err != nil {
			return err
		}
	}
	return nil
}

// AppendAttributes decodes a bare path-attribute block (as stored in MRT
// TABLE_DUMP_V2 RIB entries), appending to dst — a caller looping over
// RIB entries can reuse one scratch slice.
func AppendAttributes(dst []Attr, b []byte, opt Options) ([]Attr, error) {
	return parseAttrs(dst, b, opt)
}

// MarshalAttributes encodes a bare path-attribute block.
func MarshalAttributes(attrs []Attr, opt Options) ([]byte, error) {
	var out []byte
	var err error
	for _, a := range attrs {
		out, err = appendAttr(out, a, opt)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NewAnnouncement builds a minimal well-formed announcement UPDATE for
// the given prefixes sharing one path: ORIGIN, AS_PATH, and NEXT_HOP (or
// MP_REACH for IPv6). All prefixes must be one family.
func NewAnnouncement(path aspath.Seq, nextHop netip.Addr, prefixes []netip.Prefix) (*Update, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("%w: no prefixes", ErrBadNLRI)
	}
	v6 := prefixes[0].Addr().Is6() && !prefixes[0].Addr().Is4In6()
	nlri := make([]NLRI, len(prefixes))
	for i, p := range prefixes {
		if (p.Addr().Is6() && !p.Addr().Is4In6()) != v6 {
			return nil, fmt.Errorf("%w: mixed address families", ErrBadNLRI)
		}
		nlri[i] = NLRI{Prefix: p}
	}
	u := &Update{Attrs: []Attr{Origin(OriginIGP), ASPath{Path: aspath.FromSeq(path)}}}
	if v6 {
		nh := nextHop.As16()
		u.Attrs = append(u.Attrs, MPReach{AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: nh[:], NLRI: nlri})
	} else {
		u.Attrs = append(u.Attrs, NextHop(nextHop))
		u.Announced = nlri
	}
	return u, nil
}

// NewWithdrawal builds a withdrawal UPDATE for the given prefixes (one
// family).
func NewWithdrawal(prefixes []netip.Prefix) (*Update, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("%w: no prefixes", ErrBadNLRI)
	}
	v6 := prefixes[0].Addr().Is6() && !prefixes[0].Addr().Is4In6()
	nlri := make([]NLRI, len(prefixes))
	for i, p := range prefixes {
		if (p.Addr().Is6() && !p.Addr().Is4In6()) != v6 {
			return nil, fmt.Errorf("%w: mixed address families", ErrBadNLRI)
		}
		nlri[i] = NLRI{Prefix: p}
	}
	u := &Update{}
	if v6 {
		u.Attrs = []Attr{MPUnreach{AFI: AFIIPv6, SAFI: SAFIUnicast, NLRI: nlri}}
	} else {
		u.Withdrawn = nlri
	}
	return u, nil
}
