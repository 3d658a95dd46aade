// Package bgpstream provides a BGPStream-style element abstraction over
// MRT archives: RIB rows and update announce/withdraw events, flattened
// to one element per (prefix, peer), with collector attribution, filter
// predicates, and the per-message grouping the update-correlation
// analysis needs (all prefixes of one UPDATE share a MsgIndex).
//
// Malformed records do not abort the stream: they are skipped and
// recorded as Warnings, mirroring how the paper's pipeline turns
// BGPStream warnings ("unknown BGP4MP record subtype 9", ADD-PATH parse
// errors) into abnormal-peer signals (§A8.3).
//
// # Decode architecture
//
// A Stream is one sequential decoder. It serves its sources strictly in
// order and decodes on demand: each fill reads one record of the current
// source into the stream's one reused element buffer, so a source's
// reader is not opened until the sources before it have been served, and
// memory holds one record's elements, not an archive's. The reader, peer
// table and RIB sequence belong to the current source and are reset as
// the cursor moves on; per source only the ledger that SourceStats and
// DecodedBytes read is kept, and the source's degradation budget (fixed
// at 16 records and a 0.3 skip ratio) is judged as the cursor leaves it.
// Warnings and session flaps accumulate on the stream in serve order.
// Within a source elements come in record order, and MsgIndex numbers
// messages across all sources. One attribute-block memo (see blockMemo)
// spans the sources, so each distinct block is parsed, flattened and
// interned once, and paths are interned in serve order, so intern IDs
// are a pure function of the sources.
//
// Every source, byte-backed or not, is read by one mrt.Reader, which
// reads each record body into its one reused buffer. Decode copies out
// whatever it keeps (peer tables, prefixes, memo keys) and decodes paths
// and communities into new memory, so no element points into a record
// body or into Source.Data.
package bgpstream

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"net/netip"
	"slices"
	"sort"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/obs"
)

// ElemType classifies a stream element.
type ElemType uint8

// Element types.
const (
	ElemRIB ElemType = iota + 1
	ElemAnnounce
	ElemWithdraw
	ElemState
)

// String returns the single-letter BGPStream convention.
func (t ElemType) String() string {
	switch t {
	case ElemRIB:
		return "R"
	case ElemAnnounce:
		return "A"
	case ElemWithdraw:
		return "W"
	case ElemState:
		return "S"
	default:
		return "?"
	}
}

// Elem is one route event.
type Elem struct {
	Type      ElemType
	Timestamp uint32
	Collector string
	PeerAddr  netip.Addr
	PeerASN   uint32
	Prefix    netip.Prefix
	// Path is the raw AS path (announce and RIB elements).
	Path aspath.Path
	// Communities carries the COMMUNITIES attribute when present.
	Communities []uint32
	// PathID is the ADD-PATH identifier, when the encoding carries one.
	PathID uint32
	// MsgIndex groups elements that arrived in the same BGP UPDATE (or
	// the same RIB record). Unique per Stream.
	MsgIndex int
	// InternedPath is the intern-table ID of the flattened Path when the
	// stream interns paths (SetIntern) and this is a RIB or announce
	// element whose path flattened cleanly; PathUnusable reports that the
	// flattening failed (an AS_SET with multiple members or a
	// confederation segment). Without an intern table both stay zero.
	InternedPath aspath.ID
	PathUnusable bool
	// OldState/NewState are set on ElemState.
	OldState, NewState uint16
}

// Warning codes: stable, machine-readable categories for warn reasons.
// The Reason string carries the human detail; the Code keys telemetry
// counters (obs: bgpstream.warnings{reason=<code>,subtype=N}).
const (
	WarnRecordError       = "record-error"
	WarnPeerIndexTable    = "peer-index-table"
	WarnRIBRecord         = "rib-record"
	WarnPeerIndexRange    = "peer-index-range"
	WarnRIBAttrs          = "rib-attrs"
	WarnUnknownTD2Subtype = "unknown-td2-subtype"
	WarnStateChange       = "state-change"
	WarnBGP4MPMessage     = "bgp4mp-message"
	WarnUnknownBGP4MP     = "unknown-bgp4mp-subtype"
	WarnUnknownMRTType    = "unknown-mrt-type"
	WarnBGPHeader         = "bgp-header"
	WarnUpdateParse       = "update-parse"
	WarnAddPathSuspect    = "addpath-suspect"
	WarnResync            = "resync"
	WarnQuarantine        = "source-quarantined"
	// WarnSequenceGap flags a TABLE_DUMP_V2 RIB sequence number that is
	// not the successor of the previous record's — evidence of a missing
	// shard, a duplicated record, or reordering. The record itself is
	// still consumed; the warning is the signal that data around it was
	// lost or rearranged.
	WarnSequenceGap = "rib-sequence-gap"
)

// Warning records a record- or message-level parse problem.
type Warning struct {
	Collector string
	PeerASN   uint32
	Subtype   uint16
	// Code is the stable category (Warn* constants).
	Code string
	// Reason is the human-readable detail.
	Reason string
}

// Source is one MRT input attributed to a collector. Byte-backed
// sources (Data set) are reusable: every Stream opens a fresh reader.
// Reader-backed sources (R set) are single-use.
type Source struct {
	Collector string
	// Data is the archive contents; preferred over R when non-nil. With
	// R nil too, the source is an empty archive.
	Data []byte
	// R streams the archive; consumed by the first Stream that reads it.
	R io.Reader
	// Options sets the BGP decode options for update messages in this
	// source (RIB attribute blocks always use AS4 encoding per RFC 6396).
	Options bgp.Options
}

// BytesSource wraps an in-memory archive (reusable across Streams).
func BytesSource(collector string, data []byte, opt bgp.Options) Source {
	return Source{Collector: collector, Data: data, Options: opt}
}

// SortedSources wraps archives, keyed by collector name, as byte-backed
// sources in name order, so a stream over them warns, interns and
// judges in an order that does not depend on map iteration.
func SortedSources(archives map[string][]byte) []Source {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Source, len(names))
	for i, name := range names {
		out[i] = BytesSource(name, archives[name], bgp.Options{})
	}
	return out
}

// open returns a fresh record reader over the source. A source with
// neither Data nor R is an empty archive (bytes.Buffer.Bytes of a
// collector that got no records).
func (s *Source) open() *mrt.Reader {
	if s.Data != nil || s.R == nil {
		return mrt.NewReader(bytes.NewReader(s.Data))
	}
	return mrt.NewReader(s.R)
}

// Filter selects elements. Zero value passes everything.
type Filter struct {
	Types  map[ElemType]bool // nil = all
	V6Only bool
	V4Only bool
}

// Match reports whether e passes the filter.
func (f *Filter) Match(e *Elem) bool {
	if f == nil {
		return true
	}
	if f.Types != nil && !f.Types[e.Type] {
		return false
	}
	if f.V6Only || f.V4Only {
		if !e.Prefix.IsValid() {
			return false
		}
		v6 := e.Prefix.Addr().Is6() && !e.Prefix.Addr().Is4In6()
		if f.V6Only && !v6 {
			return false
		}
		if f.V4Only && v6 {
			return false
		}
	}
	return true
}

// Stream iterates elements across sources in order. It is one
// sequential decoder: the reader, peer table and RIB sequence below
// belong to the current source and are reset when the cursor moves on.
type Stream struct {
	sources []Source
	filter  *Filter
	intern  *aspath.Table

	// Serve cursor: sources are decoded strictly in order, one record
	// per step, into batch, the one reused element buffer. reader is nil
	// until the current source is opened; ledger[cur] is its accounting.
	cur    int
	reader *mrt.Reader
	ledger []sourceLedger
	src    *sourceLedger
	batch  []Elem
	// msgCount numbers the messages (UPDATEs, RIB records, state
	// changes) decoded so far across all sources: Elem.MsgIndex.
	msgCount int

	// Current source's decode state.
	collector   string
	peers       []mrt.Peer
	resyncsLeft int
	// RIB sequence tracking: TABLE_DUMP_V2 writers emit strictly
	// consecutive sequence numbers, so a jump between decoded records
	// means records were lost, duplicated, or reordered even when every
	// surviving record parses cleanly.
	ribSeqNext  uint32
	ribSeqValid bool

	// Decode scratch, reused across records: msg/upd/rib/attrs absorb
	// the per-record parse allocations, memo holds what each distinct
	// attribute block decodes to (dropped at EOF), mp what an unmemoized
	// MP_REACH/MP_UNREACH block does, and seqBuf the flattened path.
	memo   blockMemo
	msg    mrt.Message
	upd    bgp.Update
	rib    mrt.RIB
	attrs  []bgp.Attr
	mp     memoEntry
	seqBuf aspath.Seq

	// What the accessors report, in serve order.
	warnings    []Warning
	stateFlaps  map[uint32]int
	quarantined map[string]bool

	// Telemetry (nil metrics = disabled; hot counters are cached so
	// the enabled path skips per-record key building).
	metrics     *obs.Registry
	recordsC    *obs.Counter
	filteredC   *obs.Counter
	elemC       [5]*obs.Counter // indexed by ElemType
	sourceElemC *obs.Counter    // the current source's collector
}

// sourceLedger is one source's accounting: what SourceStats and
// DecodedBytes sum, and what the degradation budget judges.
type sourceLedger struct {
	SourceStat
	bytes int64
}

// NewStream builds a stream over the sources, applying the filter (nil
// passes all). The attribute-block memo is allocated on first use, so
// constructing a stream allocates no decode state.
func NewStream(filter *Filter, sources ...Source) *Stream {
	return &Stream{sources: sources, filter: filter, ledger: make([]sourceLedger, len(sources))}
}

// The degradation budget: a source is quarantined when, having produced
// at least degradeMinRecords records (decoded plus skipped), more than
// degradeMaxSkipRatio of them were skipped. Small archives never
// qualify, so a short truncated tail does not condemn a feed.
const (
	degradeMinRecords   = 16
	degradeMaxSkipRatio = 0.3
	// maxResyncsPerSource bounds boundary recovery: a source that keeps
	// losing framing is abandoned rather than scanned forever.
	maxResyncsPerSource = 8
	// maxResyncScan bounds each forward scan for a plausible header.
	maxResyncScan = 1 << 20
)

// SetWorkers does nothing: a Stream always decodes one record of the
// current source at a time. It remains only because the benchmark
// program calls SetWorkers(1).
func (s *Stream) SetWorkers(int) {}

// SetIntern gives the stream an AS-path intern table: the decoder
// flattens each RIB/announce element's path and interns it into t, in
// serve order, stamping Elem.InternedPath/PathUnusable so consumers skip
// the flatten+intern work entirely. Must be called before the first
// NextBatch.
func (s *Stream) SetIntern(t *aspath.Table) { s.intern = t }

// Quarantined returns the collectors whose sources blew their
// degradation budget, sorted. Complete only once the stream has
// drained (budgets are judged when each source ends).
func (s *Stream) Quarantined() []string {
	out := make([]string, 0, len(s.quarantined))
	for name := range s.quarantined {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StateFlaps returns, per peer ASN, how many BGP state-change elements
// the stream decoded — the raw session-flap signal sanitize's
// flap-storm filter consumes. Complete once the stream has drained.
func (s *Stream) StateFlaps() map[uint32]int { return maps.Clone(s.stateFlaps) }

// SourceStat summarizes one collector's accounting.
type SourceStat struct {
	Records int // records decoded
	Skipped int // records (or RIB entries) skipped with a warning
	Resyncs int // boundary recoveries
	// Elems counts the elements emitted (pre-filter). Zero flags an
	// archive that decoded nothing — e.g. a bad -updates glob entry.
	Elems int
}

// SourceStats returns per-collector accounting, summed across sources
// sharing a collector name. Every source appears, decoded or not.
func (s *Stream) SourceStats() map[string]SourceStat {
	out := make(map[string]SourceStat, len(s.sources))
	for i := range s.sources {
		st, l := out[s.sources[i].Collector], &s.ledger[i]
		st.Records += l.Records
		st.Skipped += l.Skipped
		st.Resyncs += l.Resyncs
		st.Elems += l.Elems
		out[s.sources[i].Collector] = st
	}
	return out
}

// DecodedBytes returns the total MRT wire bytes decoded so far, across
// all sources (headers included). Complete once the stream has drained.
func (s *Stream) DecodedBytes() int64 {
	var n int64
	for i := range s.ledger {
		n += s.ledger[i].bytes
	}
	return n
}

// SetMetrics attaches a telemetry registry. The stream increments:
//
//	bgpstream.records                          MRT records decoded
//	bgpstream.elems{type=R|A|W|S}              elements emitted (pre-filter)
//	bgpstream.elems_filtered                   elements dropped by the filter
//	bgpstream.source_elems{collector=...}      per-collector elements
//	bgpstream.records_skipped{reason=...}      records dropped with a warning
//	bgpstream.warnings{reason=...,subtype=N}   warnings by code and subtype
//	bgpstream.resyncs / bgpstream.resync_bytes boundary recoveries after corruption
//	bgpstream.decode_bytes                     MRT wire bytes decoded
//	bgpstream.source_quarantined{collector=C}  degradation budget exceeded
//
// A nil registry (the default) disables all of it at near-zero cost.
// Must be called before the first NextBatch.
func (s *Stream) SetMetrics(r *obs.Registry) {
	s.metrics = r
	s.recordsC = r.Counter("bgpstream.records")
	s.filteredC = r.Counter("bgpstream.elems_filtered")
	for t := ElemRIB; t <= ElemState; t++ {
		s.elemC[t] = r.Counter("bgpstream.elems", "type", t.String())
	}
}

// Warnings returns parse problems encountered so far, in source order
// (within a source, in decode order).
func (s *Stream) Warnings() []Warning { return slices.Clone(s.warnings) }

// fill decodes records into s.batch until one yields elements: strictly
// source order, record order within each source. The batch buffer is
// reused for every record, which the NextBatch contract allows: the
// previous batch is invalid once the call driving this fill was made.
// Returns io.EOF when every source has drained.
func (s *Stream) fill() error {
	for s.cur < len(s.sources) {
		if s.reader == nil {
			s.open()
		}
		s.batch = s.batch[:0]
		s.step()
		if len(s.batch) > 0 {
			return nil
		}
	}
	// Everything is served: drop the memo and the buffer, which still
	// points into the last record's paths.
	s.memo = blockMemo{}
	s.batch = nil
	return io.EOF
}

// open starts decoding the source under the cursor.
func (s *Stream) open() {
	src := &s.sources[s.cur]
	s.reader = src.open()
	s.src = &s.ledger[s.cur]
	s.collector = src.Collector
	s.peers = nil
	s.resyncsLeft = maxResyncsPerSource
	s.ribSeqValid = false
	s.sourceElemC = s.metrics.Counter("bgpstream.source_elems", "collector", src.Collector)
}

// finish closes out the current source: its byte count is flushed, its
// degradation budget judged, and the cursor moves on. Verdicts (and the
// quarantine warning's position in Warnings) follow source order.
func (s *Stream) finish() {
	l := s.src
	if s.metrics != nil && l.bytes != 0 {
		s.metrics.Counter("bgpstream.decode_bytes").Add(l.bytes)
	}
	total := l.Records + l.Skipped
	if total >= degradeMinRecords && float64(l.Skipped)/float64(total) > degradeMaxSkipRatio &&
		!s.quarantined[s.collector] {
		if s.quarantined == nil {
			s.quarantined = make(map[string]bool)
		}
		s.quarantined[s.collector] = true
		s.warn(0, 0, WarnQuarantine, fmt.Sprintf(
			"source quarantined: %d/%d records skipped", l.Skipped, total))
		if s.metrics != nil {
			s.metrics.Counter("bgpstream.source_quarantined", "collector", s.collector).Inc()
		}
	}
	s.reader, s.src, s.peers = nil, nil, nil
	s.cur++
}

// NextBatch returns the next run of elements passing the filter, or
// io.EOF when all sources drain. A batch holds the elements of one
// record, so it never spans two sources. The returned slice is valid
// only until the following NextBatch call — consume (or copy) it before
// advancing; the elements' paths and communities stay valid after that
// (see DESIGN.md "Zero-copy ownership").
func (s *Stream) NextBatch() ([]Elem, error) {
	for {
		if err := s.fill(); err != nil {
			return nil, err
		}
		b := s.batch
		if s.filter == nil {
			return b, nil
		}
		// Compact in place: writes trail reads, so the filtered batch
		// reuses the decoded buffer without copying.
		out := b[:0]
		for i := range b {
			if s.filter.Match(&b[i]) {
				out = append(out, b[i])
			} else {
				s.filteredC.Inc()
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// All drains the stream.
func (s *Stream) All() ([]Elem, error) {
	var out []Elem
	for {
		b, err := s.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b...)
	}
}

// Drain decodes every remaining record and keeps no element: for callers
// that read only the accessors (Warnings, StateFlaps, Quarantined,
// SourceStats), it holds one record's elements at a time where All holds
// them all.
func (s *Stream) Drain() error {
	for {
		if _, err := s.NextBatch(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// step decodes one record of the current source: EOF/resync handling,
// then the type dispatch.
func (s *Stream) step() {
	rec, err := s.reader.Next()
	if err == io.EOF {
		s.finish()
		return
	}
	if err != nil {
		// A corrupt record boundary: warn, then scan forward for the
		// next plausible MRT header instead of abandoning the file. A
		// source that keeps losing framing exhausts its resync budget
		// and is dropped.
		s.warn(0, 0, WarnRecordError, fmt.Sprintf("record error: %v", err))
		if s.resyncsLeft > 0 {
			s.resyncsLeft--
			skipped, rerr := s.reader.Resync(maxResyncScan)
			if rerr == nil {
				s.src.Resyncs++
				s.warn(0, 0, WarnResync, fmt.Sprintf("resynchronized after %d bytes", skipped))
				if s.metrics != nil {
					s.metrics.Counter("bgpstream.resyncs").Inc()
					s.metrics.Counter("bgpstream.resync_bytes").Add(int64(skipped))
				}
				return
			}
		}
		s.finish()
		return
	}
	s.recordsC.Inc()
	s.src.Records++
	s.src.bytes += int64(len(rec.Body)) + 12
	if rec.Type == mrt.TypeBGP4MPET {
		s.src.bytes += 4
	}
	s.decode(rec)
}

// emit queues an element and does the per-element accounting.
func (s *Stream) emit(e Elem) {
	s.batch = append(s.batch, e)
	s.src.Elems++
	s.elemC[e.Type].Inc()
	s.sourceElemC.Inc()
}

func (s *Stream) warn(peerASN uint32, subtype uint16, code, reason string) {
	s.warnings = append(s.warnings, Warning{
		Collector: s.collector,
		PeerASN:   peerASN,
		Subtype:   subtype,
		Code:      code,
		Reason:    reason,
	})
	// Every warning except the ADD-PATH heuristic and the resync /
	// quarantine notices means the record (or RIB entry) it covers was
	// skipped; skips count against the source's degradation budget.
	skip := code != WarnAddPathSuspect && code != WarnResync && code != WarnQuarantine &&
		code != WarnSequenceGap
	if skip {
		s.src.Skipped++
	}
	if s.metrics != nil {
		s.metrics.Counter("bgpstream.warnings", "reason", code, "subtype", fmt.Sprint(subtype)).Inc()
		if skip {
			s.metrics.Counter("bgpstream.records_skipped", "reason", code).Inc()
		}
	}
}

func (s *Stream) decode(rec mrt.Record) {
	switch rec.Type {
	case mrt.TypeTableDumpV2:
		switch {
		case rec.Subtype == mrt.SubPeerIndexTable:
			pit, err := mrt.ParsePeerIndexTable(rec.Body)
			if err != nil {
				s.warn(0, rec.Subtype, WarnPeerIndexTable, fmt.Sprintf("peer index table: %v", err))
				return
			}
			s.peers = pit.Peers
		case rec.IsRIB():
			rib := &s.rib
			if err := mrt.ParseRIBInto(rib, rec.Subtype, rec.Body); err != nil {
				s.warn(0, rec.Subtype, WarnRIBRecord, fmt.Sprintf("RIB record: %v", err))
				return
			}
			if s.ribSeqValid && rib.Sequence != s.ribSeqNext {
				s.warn(0, rec.Subtype, WarnSequenceGap,
					fmt.Sprintf("RIB sequence %d, expected %d: records lost, duplicated, or reordered", rib.Sequence, s.ribSeqNext))
			}
			s.ribSeqNext, s.ribSeqValid = rib.Sequence+1, true
			s.msgCount++
			// RIB attribute blocks always use 4-octet ASNs (RFC 6396
			// §4.3.4); ADD-PATH follows the record subtype.
			opt := bgp.Options{AS4: true, AddPath: rib.AddPath}
			for _, entry := range rib.Entries {
				if int(entry.PeerIndex) >= len(s.peers) {
					s.warn(0, rec.Subtype, WarnPeerIndexRange, fmt.Sprintf("peer index %d out of range", entry.PeerIndex))
					continue
				}
				peer := s.peers[entry.PeerIndex]
				m := s.memo.get(entry.Attrs, opt, true)
				if m == nil {
					attrs, err := bgp.AppendAttributes(s.attrs[:0], entry.Attrs, opt)
					if err != nil {
						s.warn(peer.ASN, rec.Subtype, WarnRIBAttrs, fmt.Sprintf("RIB attributes: %v", err))
						continue
					}
					s.attrs = attrs[:0]
					m = s.memo.put(entry.Attrs, opt, true)
					s.derive(m, attrs)
				}
				e := Elem{
					Type: ElemRIB, Timestamp: rec.Timestamp, Collector: s.collector,
					PeerAddr: peer.Addr, PeerASN: peer.ASN, Prefix: rib.Prefix,
					PathID: entry.PathID, MsgIndex: s.msgCount,
				}
				m.stamp(&e)
				s.emit(e)
			}
		default:
			s.warn(0, rec.Subtype, WarnUnknownTD2Subtype, fmt.Sprintf("unknown TABLE_DUMP_V2 record subtype %d", rec.Subtype))
		}
	case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
		switch rec.Subtype {
		case mrt.SubStateChange, mrt.SubStateChangeAS4:
			sc, err := mrt.ParseStateChange(rec.Subtype, rec.Body)
			if err != nil {
				s.warn(0, rec.Subtype, WarnStateChange, fmt.Sprintf("state change: %v", err))
				return
			}
			s.msgCount++
			if s.stateFlaps == nil {
				s.stateFlaps = make(map[uint32]int)
			}
			s.stateFlaps[sc.PeerAS]++
			s.emit(Elem{
				Type: ElemState, Timestamp: rec.Timestamp, Collector: s.collector,
				PeerAddr: sc.PeerAddr, PeerASN: sc.PeerAS,
				OldState: sc.OldState, NewState: sc.NewState, MsgIndex: s.msgCount,
			})
		case mrt.SubMessage, mrt.SubMessageAS4, mrt.SubMessageAP, mrt.SubMessageAS4AP:
			if err := mrt.ParseMessageInto(&s.msg, rec.Subtype, rec.Body); err != nil {
				s.warn(0, rec.Subtype, WarnBGP4MPMessage, fmt.Sprintf("BGP4MP message: %v", err))
				return
			}
			s.decodeUpdate(rec, &s.msg)
		default:
			s.warn(0, rec.Subtype, WarnUnknownBGP4MP, fmt.Sprintf("unknown BGP4MP record subtype %d", rec.Subtype))
		}
	default:
		s.warn(0, rec.Subtype, WarnUnknownMRTType, fmt.Sprintf("unknown MRT record type %d", rec.Type))
	}
}

func (s *Stream) decodeUpdate(rec mrt.Record, msg *mrt.Message) {
	h, err := bgp.ParseHeader(msg.Data)
	if err != nil {
		s.warn(msg.PeerAS, rec.Subtype, WarnBGPHeader, fmt.Sprintf("BGP header: %v", err))
		return
	}
	if h.Type != bgp.MsgUpdate {
		// Keepalives etc. are legal in archives; ignore silently.
		return
	}
	opt := bgp.Options{AS4: msg.AS4, AddPath: msg.AddPath}
	u := &s.upd
	// Only a memo miss parses the attribute block. It is memoized, and
	// its path interned, once the message turns out to announce, unless
	// it carries MP_REACH/MP_UNREACH, whose NLRI differ per message.
	var m *memoEntry
	var block []byte
	err = bgp.ParseUpdateWith(u, msg.Data, opt, func(b []byte) (err error) {
		if m = s.memo.get(b, opt, false); m == nil {
			block = b
			u.Attrs, err = bgp.AppendAttributes(u.Attrs[:0], b, opt)
		}
		return err
	})
	if err != nil {
		s.warn(msg.PeerAS, rec.Subtype, WarnUpdateParse, fmt.Sprintf("UPDATE parse: %v", err))
		return
	}
	// MP_REACH/MP_UNREACH NLRI are folded in without copying.
	var mpAnn, mpWdr []bgp.NLRI
	if r, ok := u.Attr(bgp.AttrTypeMPReach).(bgp.MPReach); ok && r.SAFI == bgp.SAFIUnicast {
		mpAnn = r.NLRI
	}
	if w, ok := u.Attr(bgp.AttrTypeMPUnreach).(bgp.MPUnreach); ok && w.SAFI == bgp.SAFIUnicast {
		mpWdr = w.NLRI
	}
	// ADD-PATH mismatch signature: reading ADD-PATH NLRI as plain NLRI
	// turns the 4-byte path identifiers into phantom default routes.
	// Two or more /0 entries in one message is never legitimate.
	if zeroLen(u.Announced)+zeroLen(mpAnn)+zeroLen(u.Withdrawn)+zeroLen(mpWdr) >= 2 {
		s.warn(msg.PeerAS, rec.Subtype, WarnAddPathSuspect, "suspicious NLRI: repeated zero-length prefixes (possible ADD-PATH mismatch)")
	}
	s.msgCount++
	wdr := Elem{
		Type: ElemWithdraw, Timestamp: rec.Timestamp, Collector: s.collector,
		PeerAddr: msg.PeerAddr, PeerASN: msg.PeerAS, MsgIndex: s.msgCount,
	}
	// Every announcement of the message shares its path, so the path is
	// flattened and interned once per message, not once per prefix.
	ann := wdr
	ann.Type = ElemAnnounce
	if len(u.Announced)+len(mpAnn) > 0 {
		if m == nil {
			m, s.mp = &s.mp, memoEntry{}
			if u.Attr(bgp.AttrTypeMPReach) == nil && u.Attr(bgp.AttrTypeMPUnreach) == nil {
				m = s.memo.put(block, opt, false)
			}
			s.derive(m, u.Attrs)
		}
		m.stamp(&ann)
	}
	emitAll := func(base Elem, nlri []bgp.NLRI) {
		for _, n := range nlri {
			e := base
			e.Prefix = n.Prefix
			e.PathID = n.PathID
			s.emit(e)
		}
	}
	emitAll(wdr, u.Withdrawn)
	emitAll(wdr, mpWdr)
	emitAll(ann, u.Announced)
	emitAll(ann, mpAnn)
}

// zeroLen counts zero-length (default-route) NLRI entries.
func zeroLen(nlri []bgp.NLRI) int {
	n := 0
	for _, x := range nlri {
		if x.Prefix.Bits() == 0 {
			n++
		}
	}
	return n
}

// derive fills a fresh memo entry from a decoded attribute block: the
// AS path, communities and, when the stream interns, the path's ID.
func (s *Stream) derive(m *memoEntry, attrs []bgp.Attr) {
	u := bgp.Update{Attrs: attrs}
	m.path, _ = u.ASPathAttr()
	m.comms, _ = u.Attr(bgp.AttrTypeCommunities).(bgp.Communities)
	if s.intern == nil {
		return
	}
	seq, err := m.path.AppendSequence(s.seqBuf[:0])
	if err != nil {
		m.unusable = true
		return
	}
	s.seqBuf = seq
	m.id = s.intern.Intern(seq)
}

// Memo slots start at memoMinSlots and double at 1/2 load up to
// memoMaxSlots, so a one-record stream stays small. A full memo starts
// over empty, so a daemon session's memo stays bounded.
const (
	memoMinSlots = 64
	memoMaxSlots = 1 << 18
)

// blockMemo maps a raw attribute block, keyed also by the AS4 and
// ADD-PATH options it was decoded under and by whether it came from a
// RIB entry (whose MP_REACH carries no NLRI the element needs), to what
// every element decoded from it shares: a linearly probed table of
// entries that copy their keys. A block that fails to parse is never
// stored, so each record carrying it warns. Entries are shared,
// read-only views; an evicted one is dropped, never reused.
type blockMemo struct {
	slots []*memoEntry
	n     int
}

// memoEntry is one memoized attribute block.
type memoEntry struct {
	key      string
	hash     uint64
	opt      bgp.Options
	rib      bool
	path     aspath.Path
	comms    []uint32
	id       aspath.ID
	unusable bool
}

// stamp copies the entry's shared fields onto an element.
func (m *memoEntry) stamp(e *Elem) {
	e.Path, e.Communities = m.path, m.comms
	e.InternedPath, e.PathUnusable = m.id, m.unusable
}

// memoSeed keys every memo's hash.
var memoSeed = maphash.MakeSeed()

// get returns the entry for block, or nil. The first call allocates the
// memo.
func (t *blockMemo) get(block []byte, opt bgp.Options, rib bool) *memoEntry {
	if t.slots == nil {
		t.slots = make([]*memoEntry, memoMinSlots)
	}
	h := maphash.Bytes(memoSeed, block)
	for i := h; ; i++ {
		m := t.slots[i&uint64(len(t.slots)-1)]
		if m == nil || m.hash == h && m.opt == opt && m.rib == rib && m.key == string(block) {
			return m
		}
	}
}

// put stores a new entry for block (which get just missed) and returns
// it for the caller to fill.
func (t *blockMemo) put(block []byte, opt bgp.Options, rib bool) *memoEntry {
	m := &memoEntry{key: string(block), hash: maphash.Bytes(memoSeed, block), opt: opt, rib: rib}
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		if len(old) == memoMaxSlots {
			old = nil // full: start over empty
		}
		t.slots, t.n = make([]*memoEntry, min(2*len(t.slots), memoMaxSlots)), 0
		for _, o := range old {
			if o != nil {
				t.place(o)
			}
		}
	}
	t.place(m)
	return m
}

// place puts m in the first free slot from its home on.
func (t *blockMemo) place(m *memoEntry) {
	i := m.hash
	for t.slots[i&uint64(len(t.slots)-1)] != nil {
		i++
	}
	t.slots[i&uint64(len(t.slots)-1)] = m
	t.n++
}
