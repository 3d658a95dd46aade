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
// Every source gets its own sourceDecoder: reader, peer table, warning
// list and degradation accounting live per source. The Stream serves
// those decoders strictly in source order and decodes on demand: each
// fill decodes one record of the current source into the stream's one
// reused element buffer, so a source's reader is not opened until the
// sources before it have been served, and memory holds one record's
// elements, not an archive's. Within a source elements come in record
// order; MsgIndex is rebased onto a global sequence as batches are
// served, and each source's degradation budget is judged as the stream
// moves past it. All decoders share one pooled attribute cache, and
// paths are interned in serve order, so intern IDs are a pure function
// of the sources.
//
// Byte-backed sources take the zero-copy fast path: records are read by
// mrt.BytesReader, whose Record.Body sub-slices Source.Data with no
// bufio layer and no per-record copy.
package bgpstream

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"

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

// recordReader is the reader side of one source: mrt.BytesReader for
// byte-backed sources, mrt.Reader for io.Reader-backed ones. Both have
// the same Next/Resync error contract, so the degradation machinery is
// reader-agnostic.
type recordReader interface {
	// Next returns the next record; the Body may alias reader-owned
	// storage and is valid only until the following Next/Resync call.
	//
	//atomlint:borrowed view into reader-owned storage, valid until the next Next/Resync
	Next() (mrt.Record, error)
	Resync(maxScan int) (int, error)
}

// open returns a fresh record reader over the source. Byte-backed
// sources take the zero-copy fast path: no bytes.Reader wrapper, no
// bufio layer, no per-record body copy — every Record.Body is a
// sub-slice of Data. Warm re-streams of the same Source (RunSplits
// re-reads the same archives per day) therefore cost one small struct,
// not a buffer. A source with neither Data nor R is an empty archive
// (bytes.Buffer.Bytes of a collector that got no records).
func (s *Source) open() recordReader {
	if s.Data != nil || s.R == nil {
		return mrt.NewBytesReader(s.Data)
	}
	r := mrt.NewReader(s.R)
	// Everything decode retains is either copied out of the record body
	// or owned by the attribute cache, so the reader can hand every
	// record the same body buffer.
	r.SetReuseBuffer(true)
	return r
}

// Filter selects elements. Zero value passes everything.
type Filter struct {
	Collectors map[string]bool   // nil = all
	PeerASNs   map[uint32]bool   // nil = all
	Types      map[ElemType]bool // nil = all
	StartTime  uint32            // 0 = open
	EndTime    uint32            // 0 = open
	V6Only     bool
	V4Only     bool
}

// Match reports whether e passes the filter.
func (f *Filter) Match(e *Elem) bool {
	if f == nil {
		return true
	}
	if f.Collectors != nil && !f.Collectors[e.Collector] {
		return false
	}
	if f.PeerASNs != nil && !f.PeerASNs[e.PeerASN] {
		return false
	}
	if f.Types != nil && !f.Types[e.Type] {
		return false
	}
	if f.StartTime != 0 && e.Timestamp < f.StartTime {
		return false
	}
	if f.EndTime != 0 && e.Timestamp > f.EndTime {
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

// sourceDecoder is one source's decode state: reader, peer table,
// scratch, warnings and degradation accounting. The Stream steps the
// current decoder one record at a time.
type sourceDecoder struct {
	src       Source
	collector string
	reader    recordReader
	inited    bool
	done      bool

	peers []mrt.Peer
	// elems receives one record's elements; the Stream lends it its
	// reused buffer for each step. MsgIndex values in elems are
	// source-local (1-based); the Stream rebases them.
	elems    []Elem
	msgCount int

	warnings    []Warning
	elemCount   int
	records     int
	skipped     int
	resyncs     int
	bytes       int64
	resyncsLeft int
	stateFlaps  map[uint32]int

	// RIB sequence tracking: TABLE_DUMP_V2 writers emit strictly
	// consecutive sequence numbers, so a jump between decoded records
	// means records were lost, duplicated, or reordered even when every
	// surviving record parses cleanly.
	ribSeqNext  uint32
	ribSeqValid bool

	// Decode scratch, reused across records: parsed attribute payloads
	// are deduped through the stream's attrCache (archives repeat a small
	// set of distinct paths/next-hops/communities), and msg/upd/ribAttrs
	// absorb the per-record parse allocations.
	attrCache *bgp.AttrCache
	msg       mrt.Message
	upd       bgp.Update
	ribAttrs  []bgp.Attr

	// Interning (optional): flattened-path scratch and the shared table.
	intern *aspath.Table
	seqBuf aspath.Seq

	// Telemetry, snapshotted from the Stream before decoding starts so
	// decode never builds counter keys per record. All nil-safe.
	metrics     *obs.Registry
	recordsC    *obs.Counter
	elemC       [5]*obs.Counter
	sourceElemC *obs.Counter
}

// Stream iterates elements across sources in order.
type Stream struct {
	sources []Source
	filter  *Filter
	intern  *aspath.Table

	decs    []*sourceDecoder
	running bool

	// Serve cursor: decoders are served strictly in source order;
	// msgBase is the number of messages the already-served decoders
	// produced, rebasing source-local MsgIndex onto a global sequence.
	// batch is the one element buffer every record is decoded into.
	cur       int
	msgBase   int
	batch     []Elem
	batchHead int

	// Degradation budget (SetDegradation) and the quarantine verdicts,
	// judged in source order as the cursor passes each source.
	degradeMin  int
	degradeMax  float64
	quarantined map[string]bool

	// attrCache is shared by all decoders: pooled, attached on the first
	// Next/NextBatch and handed back at EOF.
	attrCache *bgp.AttrCache

	// Telemetry (nil metrics = disabled; hot counters are cached so
	// the enabled path skips per-record key building).
	metrics   *obs.Registry
	recordsC  *obs.Counter
	filteredC *obs.Counter
	elemC     [5]*obs.Counter // indexed by ElemType
}

// NewStream builds a stream over the sources, applying the filter (nil
// passes all). The attribute cache is pooled and attached lazily on the
// first Next/NextBatch, so constructing a stream allocates no decode
// state.
func NewStream(filter *Filter, sources ...Source) *Stream {
	return &Stream{
		sources: sources, filter: filter,
		degradeMin: DefaultDegradeMinRecords, degradeMax: DefaultDegradeMaxSkipRatio,
	}
}

// attrCachePool is shared by every Stream in the process. A
// longitudinal run builds thousands of short-lived streams (one per
// archive set per era); recycling their attribute caches keeps the
// steady-state cost of a new stream near zero. AttrCache reuse is safe
// across streams: its maps memoize by content and are insert-only, so
// entries from one archive are either re-hit (same wire bytes → same
// attribute) or simply ignored by the next.
var attrCachePool = sync.Pool{New: func() any { return bgp.NewAttrCache() }}

// Degradation-budget defaults: a source is quarantined when, having
// produced at least DefaultDegradeMinRecords records (decoded plus
// skipped), more than DefaultDegradeMaxSkipRatio of them were skipped.
// Small archives never qualify, so a short truncated tail does not
// condemn a feed.
const (
	DefaultDegradeMinRecords   = 16
	DefaultDegradeMaxSkipRatio = 0.3
	// maxResyncsPerSource bounds boundary recovery: a source that keeps
	// losing framing is abandoned rather than scanned forever.
	maxResyncsPerSource = 8
	// maxResyncScan bounds each forward scan for a plausible header.
	maxResyncScan = 1 << 20
)

// SetDegradation overrides the per-source degradation budget. A source
// whose skip ratio exceeds maxSkipRatio after at least minRecords
// records is quarantined: its collector lands in Quarantined() and a
// bgpstream.source_quarantined counter fires. minRecords <= 0 disables
// quarantine entirely.
func (s *Stream) SetDegradation(minRecords int, maxSkipRatio float64) {
	s.degradeMin = minRecords
	s.degradeMax = maxSkipRatio
}

// SetWorkers does nothing: a Stream always decodes one record of the
// current source at a time. It remains only because the benchmark
// program calls SetWorkers(1).
func (s *Stream) SetWorkers(int) {}

// SetIntern gives the stream an AS-path intern table: the decoder
// flattens each RIB/announce element's path and interns it into t, in
// serve order, stamping Elem.InternedPath/PathUnusable so consumers skip
// the flatten+intern work entirely. Must be called before the first
// Next/NextBatch.
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
func (s *Stream) StateFlaps() map[uint32]int {
	var out map[uint32]int
	for _, d := range s.decs {
		for as, n := range d.stateFlaps {
			if out == nil {
				out = make(map[uint32]int)
			}
			out[as] += n
		}
	}
	return out
}

// SourceStat summarizes one collector's degradation accounting.
type SourceStat struct {
	Records int // records decoded
	Skipped int // records (or RIB entries) skipped with a warning
	Resyncs int // boundary recoveries
}

// SourceStats returns per-collector degradation accounting, summed
// across sources sharing a collector name.
func (s *Stream) SourceStats() map[string]SourceStat {
	s.ensureDecoders()
	out := make(map[string]SourceStat, len(s.sources))
	for _, d := range s.decs {
		st := out[d.collector]
		st.Records += d.records
		st.Skipped += d.skipped
		st.Resyncs += d.resyncs
		out[d.collector] = st
	}
	return out
}

// DecodedBytes returns the total MRT wire bytes decoded so far, across
// all sources (headers included). Complete once the stream has drained.
func (s *Stream) DecodedBytes() int64 {
	var n int64
	for _, d := range s.decs {
		n += d.bytes
	}
	return n
}

// judge applies the degradation budget to a finished decoder. fill
// calls it once per source, as the serve cursor passes it, so verdicts
// (and the quarantine warning's position in Warnings) follow source
// order.
func (s *Stream) judge(d *sourceDecoder) {
	total := d.records + d.skipped
	if s.degradeMin <= 0 || total < s.degradeMin {
		return
	}
	if float64(d.skipped)/float64(total) <= s.degradeMax {
		return
	}
	if s.quarantined == nil {
		s.quarantined = make(map[string]bool)
	}
	if !s.quarantined[d.collector] {
		s.quarantined[d.collector] = true
		d.warn(0, 0, WarnQuarantine, fmt.Sprintf(
			"source quarantined: %d/%d records skipped", d.skipped, total))
		if s.metrics != nil {
			s.metrics.Counter("bgpstream.source_quarantined", "collector", d.collector).Inc()
		}
	}
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
// Must be called before the first Next/NextBatch.
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
func (s *Stream) Warnings() []Warning {
	var out []Warning
	for _, d := range s.decs {
		out = append(out, d.warnings...)
	}
	return out
}

// SourceElemCounts returns, per collector, how many elements each
// source emitted (pre-filter), summed across sources sharing a
// collector name. A zero count flags an archive that matched but
// decoded nothing — e.g. a bad -updates glob entry.
func (s *Stream) SourceElemCounts() map[string]int {
	s.ensureDecoders()
	out := make(map[string]int, len(s.sources))
	for _, d := range s.decs {
		out[d.collector] += d.elemCount
	}
	return out
}

// ensureDecoders creates the per-source decode units (cheap: no I/O, no
// reader construction — that happens on first step).
func (s *Stream) ensureDecoders() {
	if s.decs != nil || len(s.sources) == 0 {
		return
	}
	s.decs = make([]*sourceDecoder, len(s.sources))
	for i := range s.sources {
		s.decs[i] = &sourceDecoder{
			src:       s.sources[i],
			collector: s.sources[i].Collector,
		}
	}
}

// ensureRunning finalizes configuration: the metrics snapshot, the
// intern table and the shared attribute cache. Decoding itself happens
// on demand in fill.
func (s *Stream) ensureRunning() {
	if s.running {
		return
	}
	s.running = true
	s.ensureDecoders()
	s.attrCache = attrCachePool.Get().(*bgp.AttrCache)
	for _, d := range s.decs {
		d.metrics = s.metrics
		d.recordsC = s.recordsC
		d.elemC = s.elemC
		d.intern = s.intern
		d.attrCache = s.attrCache
		if s.metrics != nil {
			d.sourceElemC = s.metrics.Counter("bgpstream.source_elems", "collector", d.collector)
		}
	}
}

// fill decodes records of the current source into s.batch until one
// yields elements: strictly source order, record order within each
// source, MsgIndex rebased. The batch buffer is reused for every record,
// which the NextBatch contract allows: the previous batch is invalid
// once the call driving this fill was made. Returns io.EOF when every
// source has drained.
//
//atomlint:hotpath
func (s *Stream) fill() error {
	for s.cur < len(s.decs) {
		d := s.decs[s.cur]
		if d.done {
			s.judge(d)
			s.msgBase += d.msgCount
			d.attrCache = nil
			s.cur++
			continue
		}
		d.elems = s.batch[:0]
		d.step()
		s.batch, d.elems = d.elems, nil
		s.batchHead = 0
		if len(s.batch) == 0 {
			continue
		}
		if s.msgBase != 0 {
			for i := range s.batch {
				s.batch[i].MsgIndex += s.msgBase
			}
		}
		return nil
	}
	// Everything is served: hand the shared attribute cache back to the
	// pool and drop the buffer, which still points into the last
	// record's paths.
	if s.attrCache != nil {
		attrCachePool.Put(s.attrCache)
		s.attrCache = nil
	}
	s.batch = nil
	return io.EOF
}

// Next returns the next element, or io.EOF when all sources drain.
func (s *Stream) Next() (Elem, error) {
	s.ensureRunning()
	for {
		if s.batchHead < len(s.batch) {
			e := s.batch[s.batchHead]
			s.batchHead++
			if s.filter.Match(&e) {
				return e, nil
			}
			s.filteredC.Inc()
			continue
		}
		if err := s.fill(); err != nil {
			return Elem{}, err
		}
	}
}

// NextBatch returns the next run of elements passing the filter, or
// io.EOF when all sources drain. The concatenation of batches is
// exactly the sequence Next would produce, and a batch never spans two
// sources. The returned slice is valid only until the following
// Next/NextBatch call — consume (or copy) it before advancing. When the
// backing source is byte-backed, element payloads may alias Source.Data
// (see DESIGN.md "Zero-copy ownership").
//
//atomlint:hotpath
//atomlint:borrowed batch is valid until the next Next/NextBatch call; copy what outlives the window
func (s *Stream) NextBatch() ([]Elem, error) {
	s.ensureRunning()
	for {
		if s.batchHead >= len(s.batch) {
			if err := s.fill(); err != nil {
				return nil, err
			}
		}
		b := s.batch[s.batchHead:]
		s.batchHead = len(s.batch)
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
		e, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// step decodes one record: reader init on first use, EOF/resync
// handling, then the type dispatch.
func (d *sourceDecoder) step() {
	if d.done {
		return
	}
	if !d.inited {
		d.inited = true
		d.reader = d.src.open()
		d.resyncsLeft = maxResyncsPerSource
	}
	rec, err := d.reader.Next()
	if err == io.EOF {
		d.finish()
		return
	}
	if err != nil {
		// A corrupt record boundary: warn, then scan forward for the
		// next plausible MRT header instead of abandoning the file. A
		// source that keeps losing framing exhausts its resync budget
		// and is dropped.
		d.warn(0, 0, WarnRecordError, fmt.Sprintf("record error: %v", err))
		if d.resyncsLeft > 0 {
			d.resyncsLeft--
			skipped, rerr := d.reader.Resync(maxResyncScan)
			if rerr == nil {
				d.resyncs++
				d.warn(0, 0, WarnResync, fmt.Sprintf("resynchronized after %d bytes", skipped))
				if d.metrics != nil {
					d.metrics.Counter("bgpstream.resyncs").Inc()
					d.metrics.Counter("bgpstream.resync_bytes").Add(int64(skipped))
				}
				return
			}
		}
		d.finish()
		return
	}
	d.recordsC.Inc()
	d.records++
	d.bytes += int64(len(rec.Body)) + 12
	if rec.Type == mrt.TypeBGP4MPET {
		d.bytes += 4
	}
	d.decode(rec)
}

// finish marks the source drained and flushes its byte count.
func (d *sourceDecoder) finish() {
	d.done = true
	if d.metrics != nil && d.bytes != 0 {
		d.metrics.Counter("bgpstream.decode_bytes").Add(d.bytes)
	}
}

// internPath stamps e with the intern ID of its flattened path, or
// marks the path unusable, when the stream was given an intern table.
func (d *sourceDecoder) internPath(e *Elem) {
	if d.intern == nil {
		return
	}
	seq, err := e.Path.AppendSequence(d.seqBuf[:0])
	if err != nil {
		e.PathUnusable = true
		return
	}
	d.seqBuf = seq
	e.InternedPath = d.intern.Intern(seq)
}

// emit queues an element and does the per-element accounting.
func (d *sourceDecoder) emit(e Elem) {
	d.elems = append(d.elems, e)
	d.elemCount++
	d.elemC[e.Type].Inc()
	d.sourceElemC.Inc()
}

func (d *sourceDecoder) warn(peerASN uint32, subtype uint16, code, reason string) {
	d.warnings = append(d.warnings, Warning{
		Collector: d.collector,
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
		d.skipped++
	}
	if d.metrics != nil {
		d.metrics.Counter("bgpstream.warnings", "reason", code, "subtype", fmt.Sprint(subtype)).Inc()
		if skip {
			d.metrics.Counter("bgpstream.records_skipped", "reason", code).Inc()
		}
	}
}

func (d *sourceDecoder) decode(rec mrt.Record) {
	switch rec.Type {
	case mrt.TypeTableDumpV2:
		switch {
		case rec.Subtype == mrt.SubPeerIndexTable:
			pit, err := mrt.ParsePeerIndexTable(rec.Body)
			if err != nil {
				d.warn(0, rec.Subtype, WarnPeerIndexTable, fmt.Sprintf("peer index table: %v", err))
				return
			}
			d.peers = pit.Peers
		case rec.IsRIB():
			rib, err := mrt.ParseRIB(rec.Subtype, rec.Body)
			if err != nil {
				d.warn(0, rec.Subtype, WarnRIBRecord, fmt.Sprintf("RIB record: %v", err))
				return
			}
			if d.ribSeqValid && rib.Sequence != d.ribSeqNext {
				d.warn(0, rec.Subtype, WarnSequenceGap,
					fmt.Sprintf("RIB sequence %d, expected %d: records lost, duplicated, or reordered", rib.Sequence, d.ribSeqNext))
			}
			d.ribSeqNext, d.ribSeqValid = rib.Sequence+1, true
			d.msgCount++
			for _, entry := range rib.Entries {
				if int(entry.PeerIndex) >= len(d.peers) {
					d.warn(0, rec.Subtype, WarnPeerIndexRange, fmt.Sprintf("peer index %d out of range", entry.PeerIndex))
					continue
				}
				peer := d.peers[entry.PeerIndex]
				// RIB attribute blocks always use 4-octet ASNs (RFC 6396
				// §4.3.4); ADD-PATH follows the record subtype.
				attrs, err := bgp.AppendAttributes(d.ribAttrs[:0], entry.Attrs,
					bgp.Options{AS4: true, AddPath: rib.AddPath, Cache: d.attrCache})
				if err != nil {
					d.warn(peer.ASN, rec.Subtype, WarnRIBAttrs, fmt.Sprintf("RIB attributes: %v", err))
					continue
				}
				d.ribAttrs = attrs[:0]
				e := Elem{
					Type: ElemRIB, Timestamp: rec.Timestamp, Collector: d.collector,
					PeerAddr: peer.Addr, PeerASN: peer.ASN, Prefix: rib.Prefix,
					PathID: entry.PathID, MsgIndex: d.msgCount,
				}
				applyAttrs(&e, attrs)
				d.internPath(&e)
				d.emit(e)
			}
		default:
			d.warn(0, rec.Subtype, WarnUnknownTD2Subtype, fmt.Sprintf("unknown TABLE_DUMP_V2 record subtype %d", rec.Subtype))
		}
	case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
		switch rec.Subtype {
		case mrt.SubStateChange, mrt.SubStateChangeAS4:
			sc, err := mrt.ParseStateChange(rec.Subtype, rec.Body)
			if err != nil {
				d.warn(0, rec.Subtype, WarnStateChange, fmt.Sprintf("state change: %v", err))
				return
			}
			d.msgCount++
			if d.stateFlaps == nil {
				d.stateFlaps = make(map[uint32]int)
			}
			d.stateFlaps[sc.PeerAS]++
			d.emit(Elem{
				Type: ElemState, Timestamp: rec.Timestamp, Collector: d.collector,
				PeerAddr: sc.PeerAddr, PeerASN: sc.PeerAS,
				OldState: sc.OldState, NewState: sc.NewState, MsgIndex: d.msgCount,
			})
		case mrt.SubMessage, mrt.SubMessageAS4, mrt.SubMessageAP, mrt.SubMessageAS4AP:
			//atomlint:scratch d.msg is per-decoder scratch, overwritten on every record; its views never cross a record boundary
			if err := mrt.ParseMessageInto(&d.msg, rec.Subtype, rec.Body); err != nil {
				d.warn(0, rec.Subtype, WarnBGP4MPMessage, fmt.Sprintf("BGP4MP message: %v", err))
				return
			}
			d.decodeUpdate(rec, &d.msg)
		default:
			d.warn(0, rec.Subtype, WarnUnknownBGP4MP, fmt.Sprintf("unknown BGP4MP record subtype %d", rec.Subtype))
		}
	default:
		d.warn(0, rec.Subtype, WarnUnknownMRTType, fmt.Sprintf("unknown MRT record type %d", rec.Type))
	}
}

func (d *sourceDecoder) decodeUpdate(rec mrt.Record, msg *mrt.Message) {
	h, err := bgp.ParseHeader(msg.Data)
	if err != nil {
		d.warn(msg.PeerAS, rec.Subtype, WarnBGPHeader, fmt.Sprintf("BGP header: %v", err))
		return
	}
	if h.Type != bgp.MsgUpdate {
		// Keepalives etc. are legal in archives; ignore silently.
		return
	}
	opt := d.src.Options
	opt.AS4 = msg.AS4
	opt.AddPath = msg.AddPath
	opt.Cache = d.attrCache
	u := &d.upd
	if err := bgp.ParseUpdateInto(u, msg.Data, opt); err != nil {
		d.warn(msg.PeerAS, rec.Subtype, WarnUpdateParse, fmt.Sprintf("UPDATE parse: %v", err))
		return
	}
	// MP_REACH/MP_UNREACH NLRI are folded in without copying.
	var mpAnn, mpWdr []bgp.NLRI
	if m, ok := u.Attr(bgp.AttrTypeMPReach).(bgp.MPReach); ok && m.SAFI == bgp.SAFIUnicast {
		mpAnn = m.NLRI
	}
	if m, ok := u.Attr(bgp.AttrTypeMPUnreach).(bgp.MPUnreach); ok && m.SAFI == bgp.SAFIUnicast {
		mpWdr = m.NLRI
	}
	// ADD-PATH mismatch signature: reading ADD-PATH NLRI as plain NLRI
	// turns the 4-byte path identifiers into phantom default routes.
	// Two or more /0 entries in one message is never legitimate.
	if zeroLen(u.Announced)+zeroLen(mpAnn)+zeroLen(u.Withdrawn)+zeroLen(mpWdr) >= 2 {
		d.warn(msg.PeerAS, rec.Subtype, WarnAddPathSuspect, "suspicious NLRI: repeated zero-length prefixes (possible ADD-PATH mismatch)")
	}
	d.msgCount++
	wdr := Elem{
		Type: ElemWithdraw, Timestamp: rec.Timestamp, Collector: d.collector,
		PeerAddr: msg.PeerAddr, PeerASN: msg.PeerAS, MsgIndex: d.msgCount,
	}
	// Every announcement of the message shares its path, so the path is
	// flattened and interned once per message, not once per prefix.
	ann := wdr
	ann.Type = ElemAnnounce
	if len(u.Announced)+len(mpAnn) > 0 {
		if p, ok := u.ASPathAttr(); ok {
			ann.Path = p
		}
		if c, ok := u.Attr(bgp.AttrTypeCommunities).(bgp.Communities); ok {
			ann.Communities = c
		}
		d.internPath(&ann)
	}
	emitAll := func(base Elem, nlri []bgp.NLRI) {
		for _, n := range nlri {
			e := base
			e.Prefix = n.Prefix
			e.PathID = n.PathID
			d.emit(e)
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

func applyAttrs(e *Elem, attrs []bgp.Attr) {
	var path, path4 aspath.Path
	var have4 bool
	for _, a := range attrs {
		switch v := a.(type) {
		case bgp.ASPath:
			path = v.Path
		case bgp.AS4Path:
			path4, have4 = v.Path, true
		case bgp.Communities:
			e.Communities = v
		}
	}
	if have4 {
		u := bgp.Update{Attrs: []bgp.Attr{bgp.ASPath{Path: path}, bgp.AS4Path{Path: path4}}}
		if p, ok := u.ASPathAttr(); ok {
			path = p
		}
	}
	// The attrs handed in are cache-owned (content-memoized, immutable,
	// stream-lifetime) — storing their views in the batch Elem is the
	// documented NextBatch window, not an escape.
	//atomlint:owned cache-owned attributes are immutable and outlive the batch window
	e.Path = path
}
