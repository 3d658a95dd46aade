// Package aspath models BGP AS paths: the wire-level segment structure
// (AS_SEQUENCE / AS_SET), the flattened analysis-level sequence form, and
// the prepending-handling operations the policy-atom methodology needs.
//
// Two representations coexist deliberately:
//
//   - Path: a faithful image of the AS_PATH attribute, a list of Segments.
//     This is what the BGP and MRT codecs produce and consume.
//   - Seq ([]uint32): a pure AS sequence ordered from the vantage point
//     toward the origin (index 0 is the AS nearest the VP, the last element
//     is the origin). All atom analyses operate on Seq after sanitization.
//
// Sanitization (§2.4.4 of the paper) collapses a Path to a Seq: singleton
// AS_SETs are expanded in place, and paths carrying a multi-element AS_SET
// are rejected (the aggregation destroyed the hop-by-hop information).
package aspath

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// SegmentType identifies the kind of an AS_PATH segment (RFC 4271 §4.3).
type SegmentType uint8

// AS_PATH segment types. Confederation segments (RFC 5065) are recognized
// by the codec but rejected during sanitization: confederation members are
// never supposed to leak to collectors, and the paper's pipeline treats
// them as artifacts.
const (
	SegSet            SegmentType = 1
	SegSequence       SegmentType = 2
	SegConfedSequence SegmentType = 3
	SegConfedSet      SegmentType = 4
)

// String returns the RFC name of the segment type.
func (t SegmentType) String() string {
	switch t {
	case SegSet:
		return "AS_SET"
	case SegSequence:
		return "AS_SEQUENCE"
	case SegConfedSequence:
		return "AS_CONFED_SEQUENCE"
	case SegConfedSet:
		return "AS_CONFED_SET"
	default:
		return fmt.Sprintf("SegmentType(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the four RFC-defined segment types.
func (t SegmentType) Valid() bool { return t >= SegSet && t <= SegConfedSet }

// Segment is one AS_PATH segment: an ordered sequence or an unordered set
// of AS numbers.
type Segment struct {
	Type SegmentType
	ASNs []uint32
}

// Path is a wire-faithful AS path: the ordered list of segments from the
// AS_PATH attribute. The first ASN of the first sequence segment is the
// neighbor of the vantage point; the last ASN is (normally) the origin.
type Path struct {
	Segments []Segment
}

// Errors returned when collapsing a Path to a Seq.
var (
	// ErrMultiASSet marks a path whose AS_SET holds more than one AS: the
	// aggregating router erased the downstream path, so the path cannot
	// participate in atom computation (§2.4.4).
	ErrMultiASSet = errors.New("aspath: AS_SET with more than one AS")
	// ErrConfedSegment marks a path leaking confederation segments.
	ErrConfedSegment = errors.New("aspath: confederation segment in path")
	// ErrEmptySegment marks a structurally invalid zero-length segment.
	ErrEmptySegment = errors.New("aspath: empty segment")
)

// Sequence flattens the path into a pure AS sequence, expanding singleton
// AS_SETs. It returns ErrMultiASSet if any AS_SET holds more than one AS,
// and ErrConfedSegment for confederation segments, mirroring the paper's
// sanitization rule ("We expand the AS-SET only if it contains only one
// element, and remove other cases").
func (p Path) Sequence() (Seq, error) {
	n := 0
	for _, s := range p.Segments {
		n += len(s.ASNs)
	}
	return p.AppendSequence(make(Seq, 0, n))
}

// AppendSequence is Sequence without the allocation: the flattened
// sequence is appended onto buf (pass buf[:0] to reuse a scratch
// buffer) and the extended slice returned. Decode hot paths use it to
// flatten every element's path into one reused buffer before interning.
func (p Path) AppendSequence(buf Seq) (Seq, error) {
	out := buf
	for _, s := range p.Segments {
		switch s.Type {
		case SegSequence:
			if len(s.ASNs) == 0 {
				return nil, ErrEmptySegment
			}
			out = append(out, s.ASNs...)
		case SegSet:
			switch len(s.ASNs) {
			case 0:
				return nil, ErrEmptySegment
			case 1:
				out = append(out, s.ASNs[0])
			default:
				return nil, ErrMultiASSet
			}
		case SegConfedSequence, SegConfedSet:
			return nil, ErrConfedSegment
		default:
			return nil, fmt.Errorf("aspath: invalid segment type %d", s.Type)
		}
	}
	return out, nil
}

// Len returns the AS_PATH length as the BGP decision process counts it:
// each sequence member counts 1, each AS_SET segment counts 1 in total
// (RFC 4271 §9.1.2.2).
func (p Path) Len() int {
	n := 0
	for _, s := range p.Segments {
		switch s.Type {
		case SegSequence, SegConfedSequence:
			n += len(s.ASNs)
		case SegSet, SegConfedSet:
			n++
		}
	}
	return n
}

// Origin returns the rightmost AS of the path — the origin AS — and false
// if the path is empty or ends in a multi-member AS_SET (ambiguous origin).
func (p Path) Origin() (uint32, bool) {
	if len(p.Segments) == 0 {
		return 0, false
	}
	last := p.Segments[len(p.Segments)-1]
	if len(last.ASNs) == 0 {
		return 0, false
	}
	if last.Type == SegSet && len(last.ASNs) > 1 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// String renders the path in the conventional "1 2 [3 4]" notation.
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		set := s.Type == SegSet || s.Type == SegConfedSet
		if set {
			b.WriteByte('[')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(a), 10))
		}
		if set {
			b.WriteByte(']')
		}
	}
	return b.String()
}

// FromSeq wraps a pure sequence into a single-segment Path.
func FromSeq(seq Seq) Path {
	if len(seq) == 0 {
		return Path{}
	}
	return Path{Segments: []Segment{{Type: SegSequence, ASNs: append([]uint32(nil), seq...)}}}
}

// Seq is an analysis-level AS path: a pure sequence of AS numbers ordered
// from the vantage point (index 0) to the origin (last index). A nil or
// empty Seq is the paper's "empty path" — the prefix was not observed at
// that vantage point.
type Seq []uint32

// Origin returns the origin AS (the last element) and false for an empty
// sequence.
func (s Seq) Origin() (uint32, bool) {
	if len(s) == 0 {
		return 0, false
	}
	return s[len(s)-1], true
}

// Equal reports element-wise equality.
func (s Seq) Equal(o Seq) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Seq) Clone() Seq {
	if s == nil {
		return nil
	}
	return append(Seq(nil), s...)
}

// String renders "1 2 3".
func (s Seq) String() string {
	var b strings.Builder
	for i, a := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(a), 10))
	}
	return b.String()
}

// ParseSeq parses a space-separated AS sequence such as "701 1239 3356".
func ParseSeq(s string) (Seq, error) {
	fields := strings.Fields(s)
	out := make(Seq, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("aspath: parse %q: %w", f, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// hasPrepending reports whether the sequence contains at least one pair of
// consecutive duplicate ASes (the signature of AS-path prepending).
func (s Seq) hasPrepending() bool {
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}

// StripPrepending returns the sequence with consecutive duplicates
// collapsed to a single occurrence. If nothing is prepended the receiver
// is returned unchanged (no allocation).
func (s Seq) StripPrepending() Seq {
	if !s.hasPrepending() {
		return s
	}
	out := make(Seq, 0, len(s))
	for i, a := range s {
		if i == 0 || a != s[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// HasLoop reports whether any AS appears in two non-adjacent runs — a
// routing loop (prepending runs do not count as loops). Quadratic in
// the number of runs, which beats a hash set at real AS-path lengths
// (a handful of hops) and keeps the sanitize hot loop allocation-free.
func (s Seq) HasLoop() bool {
	for i := range s {
		if i > 0 && s[i] == s[i-1] {
			continue // not the head of a run
		}
		for j := 0; j < i; j++ {
			if j > 0 && s[j] == s[j-1] {
				continue
			}
			if s[j] == s[i] {
				return true // two runs headed by the same AS
			}
		}
	}
	return false
}

// Private ASN ranges (RFC 6996).
const (
	privateASN16Lo = 64512
	privateASN16Hi = 65534
	privateASN32Lo = 4200000000
	privateASN32Hi = 4294967294
)

// isPrivateASN reports whether asn falls in an RFC 6996 private range.
func isPrivateASN(asn uint32) bool {
	return (asn >= privateASN16Lo && asn <= privateASN16Hi) ||
		(asn >= privateASN32Lo && asn <= privateASN32Hi)
}

// HasPrivateASN reports whether the sequence contains a private ASN —
// the signature of the misconfigured peer the paper removed (AS65000
// appearing in the paths of numerous prefixes, §A8.3.2).
func (s Seq) HasPrivateASN() bool {
	for _, a := range s {
		if isPrivateASN(a) {
			return true
		}
	}
	return false
}

// NoSplit is the sentinel split point for a peer at which two paths are
// identical: that peer cannot distinguish the two atoms, so it never wins
// the min over peers.
const NoSplit = int(^uint(0) >> 1) // max int

// SplitRaw returns the 1-based position, counting from the origin, of the
// first hop at which raw sequences a and b differ. If one path is a proper
// origin-suffix of the other, the divergence is at the first position the
// shorter path lacks. Identical paths return NoSplit. Empty paths are the
// caller's concern (the paper defines split=1 when either path is empty
// at a peer; callers check that before comparing).
//
// This is the split point of formation-distance methods (i) and (ii),
// where prepending has already been stripped (or deliberately kept) by
// the caller.
func SplitRaw(a, b Seq) int {
	i, j := len(a)-1, len(b)-1
	pos := 1
	for i >= 0 && j >= 0 {
		if a[i] != b[j] {
			return pos
		}
		i--
		j--
		pos++
	}
	if i >= 0 || j >= 0 {
		return pos // one path ended; divergence at the next position
	}
	return NoSplit
}

// SplitUnique returns the split point between raw sequences a and b for
// formation-distance method (iii): the divergence is located on the *raw*
// paths (so a difference only in prepending count still splits), but the
// position is counted in *unique* ASes so that prepending runs do not
// inflate the distance.
//
// Concretely: find the first raw mismatch from the origin end; the split
// point is the number of distinct AS runs in the common prefix, plus one —
// unless the divergent hop merely extends the previous run in either path
// (a prepending-count difference), in which case the split lands on that
// run itself. Example, origin-first notation: (o,o,P1) vs (o,P1) split at
// 1 (a prepend split at the origin); (o,P1) vs (o,P2) split at 2.
func SplitUnique(a, b Seq) int {
	i, j := len(a)-1, len(b)-1
	sharedUnique := 0
	var last uint32
	haveLast := false
	for i >= 0 && j >= 0 && a[i] == b[j] {
		if !haveLast || a[i] != last {
			sharedUnique++
			last = a[i]
			haveLast = true
		}
		i--
		j--
	}
	if i < 0 && j < 0 {
		return NoSplit // identical
	}
	// The divergent hop extends the previous run if it equals the last
	// shared AS — that is a prepending-count difference, and the split is
	// attributed to the run's AS itself.
	if haveLast {
		if (i >= 0 && a[i] == last) || (j >= 0 && b[j] == last) {
			return sharedUnique
		}
	}
	return sharedUnique + 1
}
