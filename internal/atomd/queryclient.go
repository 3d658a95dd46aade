// QueryClient speaks the binary query port. One request in flight at a
// time: Do sends a frame and blocks for its reply (seq echoes verify
// the pairing). Typed helpers decode the reply payloads documented in
// queryport.go.
package atomd

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
)

// QueryClient is one binary query connection. Not safe for concurrent
// use.
type QueryClient struct {
	conn net.Conn
	fp   FrameParser
	seq  uint64
	fbuf []byte
	rbuf []byte
}

// DialQuery connects to a daemon's binary query port.
func DialQuery(addr string) (*QueryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &QueryClient{conn: conn, rbuf: make([]byte, 4096)}, nil
}

// Close tears the connection down.
func (q *QueryClient) Close() error { return q.conn.Close() }

// Do sends one request frame and returns the reply frame. The reply's
// payload aliases the client's parse buffer — valid until the next Do.
// A FrameError reply is returned as a Go error carrying its text.
func (q *QueryClient) Do(typ byte, payload []byte) (Frame, error) {
	q.seq++
	q.fbuf = AppendFrame(q.fbuf[:0], typ, q.seq, payload)
	if _, err := q.conn.Write(q.fbuf); err != nil {
		return Frame{}, err
	}
	for {
		fr, ok, err := q.fp.Next()
		if err != nil {
			return Frame{}, err
		}
		if ok {
			if fr.Seq != q.seq {
				continue // stale reply from a failed earlier exchange
			}
			if fr.Type == FrameError {
				return fr, fmt.Errorf("atomd query: %s", fr.Payload)
			}
			return fr, nil
		}
		n, rerr := q.conn.Read(q.rbuf)
		if n > 0 {
			q.fp.Feed(q.rbuf[:n])
			continue
		}
		if rerr != nil {
			return Frame{}, rerr
		}
	}
}

// Epoch queries the current generation and universe size.
func (q *QueryClient) Epoch() (epoch uint64, atoms, prefixes int, err error) {
	fr, err := q.Do(FrameEpoch, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(fr.Payload) != 16 {
		return 0, 0, 0, fmt.Errorf("atomd query: epoch reply: want 16 bytes, got %d", len(fr.Payload))
	}
	return binary.BigEndian.Uint64(fr.Payload[:8]),
		int(binary.BigEndian.Uint32(fr.Payload[8:12])),
		int(binary.BigEndian.Uint32(fr.Payload[12:16])), nil
}

// SameAtom asks whether prefix rows p and r share an atom.
func (q *QueryClient) SameAtom(p, r int) (same bool, epoch uint64, err error) {
	var payload [8]byte
	binary.BigEndian.PutUint32(payload[:4], uint32(p))
	binary.BigEndian.PutUint32(payload[4:8], uint32(r))
	fr, err := q.Do(FrameSameAtom, payload[:])
	if err != nil {
		return false, 0, err
	}
	if len(fr.Payload) != 9 {
		return false, 0, fmt.Errorf("atomd query: sameatom reply: want 9 bytes, got %d", len(fr.Payload))
	}
	return fr.Payload[8] == 1, binary.BigEndian.Uint64(fr.Payload[:8]), nil
}

// MemberCount asks for the size of prefix row p's atom.
func (q *QueryClient) MemberCount(p int) (count int, epoch uint64, err error) {
	var payload [4]byte
	binary.BigEndian.PutUint32(payload[:4], uint32(p))
	fr, err := q.Do(FrameMemberCount, payload[:])
	if err != nil {
		return 0, 0, err
	}
	if len(fr.Payload) != 12 {
		return 0, 0, fmt.Errorf("atomd query: membercount reply: want 12 bytes, got %d", len(fr.Payload))
	}
	return int(binary.BigEndian.Uint32(fr.Payload[8:12])), binary.BigEndian.Uint64(fr.Payload[:8]), nil
}

// PrefixAtom resolves a prefix to its row, canonical atom, and atom
// size; row and atom are -1 when the prefix is outside the universe.
func (q *QueryClient) PrefixAtom(pfx netip.Prefix) (row, atom int32, count int, epoch uint64, err error) {
	addr := pfx.Addr().AsSlice()
	payload := make([]byte, 0, 17)
	payload = append(payload, byte(pfx.Bits()))
	payload = append(payload, addr...)
	fr, err := q.Do(FramePrefixAtom, payload)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(fr.Payload) != 20 {
		return 0, 0, 0, 0, fmt.Errorf("atomd query: prefixatom reply: want 20 bytes, got %d", len(fr.Payload))
	}
	return int32(binary.BigEndian.Uint32(fr.Payload[8:12])),
		int32(binary.BigEndian.Uint32(fr.Payload[12:16])),
		int(binary.BigEndian.Uint32(fr.Payload[16:20])),
		binary.BigEndian.Uint64(fr.Payload[:8]), nil
}
