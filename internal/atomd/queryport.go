// The binary query port: the same frame format as ingest, carrying
// query opcodes. Requests are answered in order on the same
// connection; seq is an opaque request ID echoed back on the reply.
// Malformed requests get FrameError replies; frame-level garbage is
// scanned past and a desynchronized connection is dropped, exactly as
// on the ingest port.
//
// Reply payloads (big-endian):
//
//	FrameEpoch       epoch u64 | atoms u32 | prefixes u32
//	FrameSameAtom    epoch u64 | same u8
//	FrameMemberCount epoch u64 | count u32
//	FramePrefixAtom  epoch u64 | row i32 | atom i32 | count u32
//
// FramePrefixAtom requests encode the prefix as bits u8 | addr bytes
// (4 for v4, 16 for v6); a prefix outside the serving universe answers
// row=-1, atom=-1, count=0.
package atomd

import (
	"encoding/binary"
	"net"
	"net/netip"
)

// serveQuery handles one query connection until it closes.
func (srv *Server) serveQuery(conn net.Conn) {
	defer conn.Close()
	var (
		fp   FrameParser
		rbuf = make([]byte, 16<<10)
		resp []byte
	)
	for {
		n, err := conn.Read(rbuf)
		if n > 0 {
			fp.Feed(rbuf[:n])
			resp = resp[:0]
			for {
				fr, ok, perr := fp.Next()
				if perr != nil {
					resp = AppendFrameFlags(resp, FrameError, 0, 0, []byte(perr.Error()))
					conn.Write(resp)
					return
				}
				if !ok {
					break
				}
				resp = srv.answer(fr, resp)
			}
			if len(resp) > 0 {
				if _, werr := conn.Write(resp); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// answer appends the reply frame for one query request, answered from
// one view load so the reply's epoch and payload share a generation.
func (srv *Server) answer(fr Frame, resp []byte) []byte {
	fail := func(msg string) []byte {
		return AppendFrameFlags(resp, FrameError, 0, fr.Seq, []byte(msg))
	}
	v := srv.view.Load()
	var payload [24]byte
	binary.BigEndian.PutUint64(payload[:8], v.epoch)
	switch fr.Type {
	case FrameEpoch:
		start := srv.obsStart()
		binary.BigEndian.PutUint32(payload[8:12], uint32(len(v.part.Counts)))
		binary.BigEndian.PutUint32(payload[12:16], uint32(len(v.part.ByPrefix)))
		srv.obsQuery("epoch", start)
		return AppendFrame(resp, FrameReply, fr.Seq, payload[:16])
	case FrameSameAtom:
		if len(fr.Payload) != 8 {
			return fail("sameatom: want 8-byte payload (p u32, q u32)")
		}
		start := srv.obsStart()
		p := int(binary.BigEndian.Uint32(fr.Payload[:4]))
		q := int(binary.BigEndian.Uint32(fr.Payload[4:8]))
		var same byte
		if v.sameAtom(p, q) {
			same = 1
		}
		payload[8] = same
		srv.obsQuery("sameatom", start)
		return AppendFrame(resp, FrameReply, fr.Seq, payload[:9])
	case FrameMemberCount:
		if len(fr.Payload) != 4 {
			return fail("membercount: want 4-byte payload (p u32)")
		}
		start := srv.obsStart()
		p := int(binary.BigEndian.Uint32(fr.Payload[:4]))
		binary.BigEndian.PutUint32(payload[8:12], uint32(v.memberCount(p)))
		srv.obsQuery("membercount", start)
		return AppendFrame(resp, FrameReply, fr.Seq, payload[:12])
	case FramePrefixAtom:
		if len(fr.Payload) != 5 && len(fr.Payload) != 17 {
			return fail("prefixatom: want bits u8 + 4 or 16 addr bytes")
		}
		start := srv.obsStart()
		addr, ok := netip.AddrFromSlice(fr.Payload[1:])
		if !ok {
			return fail("prefixatom: bad address")
		}
		pfx, err := addr.Prefix(int(fr.Payload[0]))
		if err != nil {
			return fail("prefixatom: bad bit count")
		}
		row := int32(-1)
		atom := int32(-1)
		var count uint32
		if r, found := srv.mapper.PrefixRow(pfx); found {
			row = int32(r)
			atom = v.prefixAtom(r)
			count = uint32(v.memberCount(r))
		}
		binary.BigEndian.PutUint32(payload[8:12], uint32(row))
		binary.BigEndian.PutUint32(payload[12:16], uint32(atom))
		binary.BigEndian.PutUint32(payload[16:20], count)
		srv.obsQuery("prefixatom", start)
		return AppendFrame(resp, FrameReply, fr.Seq, payload[:20])
	default:
		return fail("unknown query opcode")
	}
}
