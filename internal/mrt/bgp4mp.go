package mrt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Message is a BGP4MP MESSAGE(_AS4)(_ADDPATH) record: one BGP message as
// exchanged between a collector and a peer, with addressing context.
type Message struct {
	PeerAS    uint32
	LocalAS   uint32
	Interface uint16
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	// Data is the full BGP message, header included.
	Data []byte
	// AS4 records whether the subtype carried 4-octet ASNs; AddPath
	// whether NLRI inside Data uses ADD-PATH encoding.
	AS4     bool
	AddPath bool
}

// Subtype returns the BGP4MP subtype matching the message's flags.
func (m *Message) Subtype() uint16 {
	switch {
	case m.AS4 && m.AddPath:
		return SubMessageAS4AP
	case m.AS4:
		return SubMessageAS4
	case m.AddPath:
		return SubMessageAP
	default:
		return SubMessage
	}
}

// afi returns the BGP4MP address-family code for the peer address.
func afiFor(a netip.Addr) uint16 {
	if a.Is6() && !a.Is4In6() {
		return 2
	}
	return 1
}

// Marshal encodes the BGP4MP message body.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the encoded BGP4MP message body to dst — a
// caller looping over messages can reuse one scratch buffer.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	afi := afiFor(m.PeerAddr)
	if afiFor(m.LocalAddr) != afi {
		return nil, fmt.Errorf("%w: peer/local address family mismatch", ErrBadRecord)
	}
	out := dst
	if m.AS4 {
		out = binary.BigEndian.AppendUint32(out, m.PeerAS)
		out = binary.BigEndian.AppendUint32(out, m.LocalAS)
	} else {
		if m.PeerAS > 0xffff || m.LocalAS > 0xffff {
			return nil, fmt.Errorf("%w: 4-octet ASN in 2-octet subtype", ErrBadRecord)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(m.PeerAS))
		out = binary.BigEndian.AppendUint16(out, uint16(m.LocalAS))
	}
	out = binary.BigEndian.AppendUint16(out, m.Interface)
	out = binary.BigEndian.AppendUint16(out, afi)
	if afi == 2 {
		p, l := m.PeerAddr.As16(), m.LocalAddr.As16()
		out = append(out, p[:]...)
		out = append(out, l[:]...)
	} else {
		p, l := m.PeerAddr.Unmap().As4(), m.LocalAddr.Unmap().As4()
		out = append(out, p[:]...)
		out = append(out, l[:]...)
	}
	return append(out, m.Data...), nil
}

// ParseMessageInto decodes a BGP4MP MESSAGE-family body into m. The
// subtype selects ASN width and ADD-PATH mode. Nothing is copied: m.Data
// aliases b and is only valid until b's backing buffer is reused.
// Allocation-free hot path for streaming decoders.
func ParseMessageInto(m *Message, subtype uint16, b []byte) error {
	*m = Message{}
	switch subtype {
	case SubMessage, SubMessageLocal:
	case SubMessageAS4, SubMessageAS4Local:
		m.AS4 = true
	case SubMessageAP, SubMessageLocalAP:
		m.AddPath = true
	case SubMessageAS4AP, SubMessageAS4LocAP:
		m.AS4, m.AddPath = true, true
	default:
		return fmt.Errorf("%w: BGP4MP subtype %d", ErrUnsupported, subtype)
	}
	asnLen := 2
	if m.AS4 {
		asnLen = 4
	}
	need := 2*asnLen + 4
	if len(b) < need {
		return fmt.Errorf("%w: BGP4MP header", ErrTruncated)
	}
	if m.AS4 {
		m.PeerAS = binary.BigEndian.Uint32(b[:4])
		m.LocalAS = binary.BigEndian.Uint32(b[4:8])
		b = b[8:]
	} else {
		m.PeerAS = uint32(binary.BigEndian.Uint16(b[:2]))
		m.LocalAS = uint32(binary.BigEndian.Uint16(b[2:4]))
		b = b[4:]
	}
	m.Interface = binary.BigEndian.Uint16(b[:2])
	afi := binary.BigEndian.Uint16(b[2:4])
	b = b[4:]
	switch afi {
	case 1:
		if len(b) < 8 {
			return fmt.Errorf("%w: BGP4MP v4 addresses", ErrTruncated)
		}
		m.PeerAddr = netip.AddrFrom4([4]byte(b[:4]))
		m.LocalAddr = netip.AddrFrom4([4]byte(b[4:8]))
		b = b[8:]
	case 2:
		if len(b) < 32 {
			return fmt.Errorf("%w: BGP4MP v6 addresses", ErrTruncated)
		}
		m.PeerAddr = netip.AddrFrom16([16]byte(b[:16]))
		m.LocalAddr = netip.AddrFrom16([16]byte(b[16:32]))
		b = b[32:]
	default:
		return fmt.Errorf("%w: BGP4MP AFI %d", ErrBadRecord, afi)
	}
	m.Data = b
	return nil
}

// StateChange is a BGP4MP STATE_CHANGE(_AS4) record.
type StateChange struct {
	PeerAS    uint32
	LocalAS   uint32
	Interface uint16
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	OldState  uint16
	NewState  uint16
	AS4       bool
}

// FSM states (RFC 4271 §8.2.2 numbering used by MRT).
const (
	StateIdle        uint16 = 1
	StateConnect     uint16 = 2
	StateActive      uint16 = 3
	StateOpenSent    uint16 = 4
	StateOpenConfirm uint16 = 5
	StateEstablished uint16 = 6
)

// Subtype returns the BGP4MP subtype for the state change.
func (s *StateChange) Subtype() uint16 {
	if s.AS4 {
		return SubStateChangeAS4
	}
	return SubStateChange
}

// Marshal encodes the state-change body.
func (s *StateChange) Marshal() ([]byte, error) {
	msg := Message{
		PeerAS: s.PeerAS, LocalAS: s.LocalAS, Interface: s.Interface,
		PeerAddr: s.PeerAddr, LocalAddr: s.LocalAddr, AS4: s.AS4,
	}
	var states [4]byte
	binary.BigEndian.PutUint16(states[:2], s.OldState)
	binary.BigEndian.PutUint16(states[2:], s.NewState)
	msg.Data = states[:]
	return msg.Marshal()
}

// ParseStateChange decodes a STATE_CHANGE(_AS4) body.
func ParseStateChange(subtype uint16, b []byte) (*StateChange, error) {
	var msgSub uint16
	switch subtype {
	case SubStateChange:
		msgSub = SubMessage
	case SubStateChangeAS4:
		msgSub = SubMessageAS4
	default:
		return nil, fmt.Errorf("%w: state-change subtype %d", ErrUnsupported, subtype)
	}
	var m Message
	if err := ParseMessageInto(&m, msgSub, b); err != nil {
		return nil, err
	}
	if len(m.Data) != 4 {
		return nil, fmt.Errorf("%w: state change payload %d bytes", ErrBadRecord, len(m.Data))
	}
	return &StateChange{
		PeerAS: m.PeerAS, LocalAS: m.LocalAS, Interface: m.Interface,
		PeerAddr: m.PeerAddr, LocalAddr: m.LocalAddr,
		OldState: binary.BigEndian.Uint16(m.Data[:2]),
		NewState: binary.BigEndian.Uint16(m.Data[2:]),
		AS4:      subtype == SubStateChangeAS4,
	}, nil
}
