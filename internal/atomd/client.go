// Client streams one collector's update bytes into an atomd ingest
// session. Payload is framed record-aligned wherever the archive
// parses — each DATA frame is a run of whole records up to frameTarget
// bytes, so acked offsets land on record boundaries, which is what
// makes resume-after-restart decode from a clean record start — and in
// raw chunks where it does not (damaged archives still arrive
// byte-exact; the server's batch decoder handles the damage). A raw
// chunk ends early where a whole record starts, so framing recovers
// after the damage. A NAK rewinds the send cursor; Drain flushes
// everything, sends EOF, and waits for the server's drained ack — the
// applied barrier.
package atomd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"repro/internal/mrt"
)

// frameTarget bounds the payload of a packed DATA frame. The server
// pays one ack, one decode-pipe hand-off and one parser pass per frame,
// so packing records up to this size spreads those costs over ~64 KiB
// instead of one record. A single record longer than this still
// travels alone in its own frame.
const frameTarget = 64 << 10

// rawChunk is the frame payload size used for bytes that do not parse
// as an MRT record.
const rawChunk = 4096

// clientWindow bounds frames in flight before the client reads a
// response; server responses are 16 bytes each, so the response
// backlog can never fill a socket buffer and deadlock the pair.
const clientWindow = 32

// Client is one ingest session. Not safe for concurrent use.
type Client struct {
	conn      net.Conn
	fp        FrameParser
	collector string

	base        uint64 // stream offset of data[0] (resume point)
	data        []byte // payload retained from base for rewinds
	sent        uint64 // next stream offset to transmit
	acked       uint64 // server's contiguous high-water mark
	outstanding int    // frames sent but not yet answered
	drained     bool
	quarErr     error // sticky: the server quarantined us

	fbuf []byte
	rbuf []byte
}

// Dial opens a fresh ingest session for a collector.
func Dial(addr, collector string) (*Client, error) {
	return DialResume(addr, collector, 0)
}

// DialResume opens a session whose stream resumes at offset from — the
// acked high-water mark of a previous incarnation against the same
// daemon state. The hello carries the offset; the first Send supplies
// the bytes from that offset onward.
func DialResume(addr, collector string, from uint64) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:      conn,
		collector: collector,
		base:      from,
		sent:      from,
		acked:     from,
		rbuf:      make([]byte, 4096),
	}
	c.fbuf = AppendFrame(c.fbuf[:0], FrameHello, from, []byte(collector))
	if _, err := conn.Write(c.fbuf); err != nil {
		conn.Close()
		return nil, err
	}
	// The hello ack confirms the session (and the resume offset).
	if _, err := c.readResponse(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Acked returns the server's contiguous accepted offset — the resume
// point for a future DialResume.
func (c *Client) Acked() uint64 { return c.acked }

// Sent returns the next offset the client will transmit.
func (c *Client) Sent() uint64 { return c.sent }

// Send appends stream bytes and transmits every frame that is already
// complete (whole records, or raw chunks through damaged stretches). A
// trailing partial record stays buffered until more bytes arrive or
// Drain flushes it.
func (c *Client) Send(p []byte) error {
	c.data = append(c.data, p...)
	return c.pump(false)
}

// Drain flushes any buffered tail, sends EOF, and blocks until the
// server acknowledges that every accepted byte has been decoded and
// applied. The connection stays open (more Sends may follow a drain in
// principle, but the server treats EOF as final — use one Drain per
// session).
func (c *Client) Drain() error {
	for attempt := 0; ; attempt++ {
		if attempt > maxNaks {
			return errors.New("atomd client: drain: rewind budget exhausted")
		}
		if err := c.pump(true); err != nil {
			return err
		}
		for c.outstanding > 0 {
			if _, err := c.readResponse(); err != nil {
				return err
			}
		}
		if c.sent != c.acked {
			// A NAK rewound us mid-flight; retransmit before EOF.
			continue
		}
		c.fbuf = AppendFrame(c.fbuf[:0], FrameEOF, c.sent, nil)
		if _, err := c.conn.Write(c.fbuf); err != nil {
			return err
		}
		nak := false
		for !c.drained && !nak {
			typ, err := c.readResponse()
			if err != nil {
				return err
			}
			nak = typ == FrameNak // EOF refused: rewind and retry
		}
		if c.drained {
			return nil
		}
	}
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// pump transmits pending bytes as frames. flush forces a trailing
// partial record out as raw chunks (Drain's final sweep).
func (c *Client) pump(flush bool) error {
	for {
		if c.quarErr != nil {
			return c.quarErr
		}
		if c.sent < c.base {
			return fmt.Errorf("atomd client: rewound to %d, before resume offset %d", c.sent, c.base)
		}
		pend := c.data[c.sent-c.base:]
		if len(pend) == 0 {
			return nil
		}
		n := nextChunk(pend, flush)
		if n == 0 {
			return nil // partial record: wait for more bytes
		}
		c.fbuf = AppendFrame(c.fbuf[:0], FrameData, c.sent, pend[:n])
		if _, err := c.conn.Write(c.fbuf); err != nil {
			return err
		}
		c.sent += uint64(n)
		c.outstanding++
		for c.outstanding >= clientWindow {
			if _, err := c.readResponse(); err != nil {
				return err
			}
		}
	}
}

// nextChunk picks the next frame's payload length: a run of whole MRT
// records up to frameTarget when the bytes parse as records (a longer
// record travels alone), a raw chunk when they do not, zero to wait for
// a record's remaining bytes (unless flushing). Packing only takes
// records already fully buffered, so it never delays a frame.
func nextChunk(pend []byte, flush bool) int {
	n := nextRecord(pend)
	if n > 0 {
		for {
			m := nextRecord(pend[n:])
			if m <= 0 || n+m > frameTarget {
				break
			}
			n += m
		}
		return n
	}
	if n == 0 && !flush {
		return 0
	}
	// Raw bytes: end the chunk where a whole plausible record starts, so
	// one unknown record does not push the rest of the archive into raw
	// framing and acked offsets land on record boundaries again.
	raw := min(len(pend), rawChunk)
	for i := 1; i < raw; i++ {
		if nextRecord(pend[i:]) > 0 {
			return i
		}
	}
	return raw
}

// nextRecord sizes the MRT record at the start of pend: its length
// when a plausible header heads a record that is fully buffered, 0
// when the header or the record is still partial, -1 when the bytes do
// not start a record this client can frame.
func nextRecord(pend []byte) int {
	if len(pend) < mrtHeaderLen {
		return 0
	}
	if !mrt.PlausibleHeader(pend[:mrtHeaderLen]) {
		return -1
	}
	rl := mrtHeaderLen + int(binary.BigEndian.Uint32(pend[8:12]))
	if rl > MaxFramePayload {
		return -1
	}
	if len(pend) < rl {
		return 0
	}
	return rl
}

// mrtHeaderLen is the MRT record header size (timestamp, type,
// subtype, length).
const mrtHeaderLen = 12

// readResponse blocks for one server frame, applies it, and returns
// its type: acks move the high-water mark, naks rewind the send
// cursor, error frames are sticky failures.
func (c *Client) readResponse() (byte, error) {
	for {
		fr, ok, err := c.fp.Next()
		if err != nil {
			return 0, err
		}
		if ok {
			switch fr.Type {
			case FrameAck:
				if fr.Seq > c.acked {
					c.acked = fr.Seq
				}
				if fr.Flags&FlagDrained != 0 {
					c.drained = true
				}
				if c.outstanding > 0 {
					c.outstanding--
				}
				return fr.Type, nil
			case FrameNak:
				c.sent = fr.Seq
				if c.outstanding > 0 {
					c.outstanding--
				}
				return fr.Type, nil
			case FrameError:
				c.quarErr = fmt.Errorf("atomd client: server error: %s", fr.Payload)
				return fr.Type, c.quarErr
			default:
				// Unknown response type: ignore (forward compatibility).
				continue
			}
		}
		n, rerr := c.conn.Read(c.rbuf)
		if n > 0 {
			c.fp.Feed(c.rbuf[:n])
			continue
		}
		if rerr != nil {
			return 0, rerr
		}
	}
}
