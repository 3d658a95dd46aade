// Package faultgen is a deterministic, seeded fault injector for MRT
// archives. It takes valid synthetic archives (cmd/gensim output) and
// applies a schedule of fault classes modeled on two decades of real
// RIPE RIS / RouteViews damage: mid-record truncation, header-length
// lies, bit flips in path attributes, duplicated and reordered records,
// missing RIB shards, peer flap storms, and ADD-PATH subtype confusion.
//
// Every fault is tagged with the ground-truth set of clean records it
// damaged (Fault.Covered), which is what lets the differential harness
// (faultgen/harness) decide whether a divergence between the clean and
// damaged pipelines is explained by the injected damage or is a silent
// corruption bug.
//
// The same (seed, archive set, class list) always produces a
// byte-identical Schedule, and Apply reconstructs the exact mutation
// from (Schedule, clean archives): every random choice is a pure
// splitmix-style hash of (seed, archive, class, record, draw), never
// global RNG state.
package faultgen

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mrt"
	"repro/internal/topology"
)

// Class is one fault taxonomy entry.
type Class uint8

// The fault classes.
const (
	// ClassTruncate cuts an archive mid-record: the transfer died.
	ClassTruncate Class = iota + 1
	// ClassHeaderLie rewrites one record's header length field so the
	// framing no longer matches the body — record boundaries downstream
	// of the lie cannot be trusted.
	ClassHeaderLie
	// ClassBitFlip flips a few bits inside one record body (path
	// attributes, NLRI, peer table) without touching the framing.
	ClassBitFlip
	// ClassDuplicate repeats one record verbatim.
	ClassDuplicate
	// ClassReorder swaps two adjacent records.
	ClassReorder
	// ClassDropShard deletes a contiguous run of records — a missing
	// RIB shard or a lost chunk of an update stream.
	ClassDropShard
	// ClassFlapStorm inserts a burst of well-formed STATE_CHANGE
	// records for a real peer: a session that will not stay up.
	ClassFlapStorm
	// ClassAddPathMix rewrites record subtypes to their ADD-PATH
	// variants without re-encoding the bodies — the RFC 8050 mismatch
	// real collectors emitted for years.
	ClassAddPathMix
)

// AllClasses returns every fault class, in declaration order.
func AllClasses() []Class {
	return []Class{
		ClassTruncate, ClassHeaderLie, ClassBitFlip, ClassDuplicate,
		ClassReorder, ClassDropShard, ClassFlapStorm, ClassAddPathMix,
	}
}

var classNames = [...]string{
	ClassTruncate:   "truncate",
	ClassHeaderLie:  "header-lie",
	ClassBitFlip:    "bit-flip",
	ClassDuplicate:  "duplicate",
	ClassReorder:    "reorder",
	ClassDropShard:  "drop-shard",
	ClassFlapStorm:  "flap-storm",
	ClassAddPathMix: "addpath-mix",
}

// String returns the stable schedule-file name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) && classNames[c] != "" {
		return classNames[c]
	}
	return fmt.Sprintf("class-%d", uint8(c))
}

// parseClass resolves a class name (as printed by String).
func parseClass(s string) (Class, error) {
	for c, n := range classNames {
		if n != "" && n == s {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("faultgen: unknown fault class %q", s)
}

// ParseClasses resolves a comma-separated class list; "all" (or the
// empty string) selects every class.
func ParseClasses(s string) ([]Class, error) {
	if s == "" || s == "all" {
		return AllClasses(), nil
	}
	var out []Class
	for _, part := range strings.Split(s, ",") {
		c, err := parseClass(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// CoversSuffix reports whether the class invalidates record framing
// from the fault onward: after a truncation or a header-length lie, no
// downstream record boundary in the damaged file is trustworthy, so
// ground-truth coverage extends to the end of the archive.
func (c Class) CoversSuffix() bool {
	return c == ClassTruncate || c == ClassHeaderLie
}

// Fault is one planned corruption.
type Fault struct {
	Class   Class
	Archive string
	// Record is the index of the first affected record in the clean
	// archive; Span is the number of clean records directly affected
	// (for ClassFlapStorm it is the number of inserted records).
	Record int
	Span   int
	// Offset is Record's byte offset in the clean archive.
	Offset int
	// Detail is a human-readable description of the exact mutation.
	Detail string
}

// Covered returns the half-open range of clean-record indices whose
// decoded content may legitimately differ because of this fault, given
// the clean archive's record count. Flap storms insert new records and
// damage none, so they cover nothing.
func (f *Fault) Covered(numRecords int) (lo, hi int) {
	switch {
	case f.Class == ClassFlapStorm:
		return 0, 0
	case f.Class.CoversSuffix():
		return f.Record, numRecords
	default:
		hi = f.Record + f.Span
		if hi > numRecords {
			hi = numRecords
		}
		return f.Record, hi
	}
}

// CoveredDamaged is Covered translated to the damaged archive's record
// indices, for single-fault archives: it bounds which damaged-side
// records may decode to fault-created content (the duplicate's extra
// copy, the storm's inserted state changes, everything after a broken
// boundary). numRecords is the damaged archive's record count.
func (f *Fault) CoveredDamaged(numRecords int) (lo, hi int) {
	switch f.Class {
	case ClassFlapStorm:
		hi = f.Record + f.Span
	case ClassDuplicate:
		hi = f.Record + f.Span + 1
	case ClassDropShard:
		// Deletion adds nothing on the damaged side.
		return 0, 0
	default:
		return f.Covered(numRecords)
	}
	if hi > numRecords {
		hi = numRecords
	}
	return f.Record, hi
}

// Schedule is a planned set of faults, reproducible from its seed.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

// ForArchive returns the schedule's faults against one archive.
func (s *Schedule) ForArchive(name string) []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Archive == name {
			out = append(out, f)
		}
	}
	return out
}

// Marshal renders the schedule as canonical text: same schedule, same
// bytes. This is the artifact gensim -faults writes next to the
// damaged archives and the harness embeds in its report.
func (s *Schedule) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "faultgen schedule v1\nseed 0x%016x\nfaults %d\n", s.Seed, len(s.Faults))
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "fault class=%s archive=%s record=%d span=%d offset=%d detail=%q\n",
			f.Class, f.Archive, f.Record, f.Span, f.Offset, f.Detail)
	}
	return []byte(b.String())
}

// Config tunes Plan.
type Config struct {
	Seed    uint64
	Classes []Class
	// FaultsPerArchive is how many faults of each class are planned per
	// archive; 0 means 1.
	FaultsPerArchive int
}

// recSpan is one record's location in a clean archive.
type recSpan struct {
	off, end     int
	typ, subtype uint16
}

func (rs recSpan) bodyLen() int { return rs.end - rs.off - 12 }

// indexRecords walks the archive's record framing. The input must be a
// clean archive; a malformed tail stops the walk (planning only ever
// sees clean archives, so this is a sanity guard, not a parser).
func indexRecords(data []byte) []recSpan {
	var out []recSpan
	off := 0
	for off+12 <= len(data) {
		typ := binary.BigEndian.Uint16(data[off+4 : off+6])
		sub := binary.BigEndian.Uint16(data[off+6 : off+8])
		length := int(binary.BigEndian.Uint32(data[off+8 : off+12]))
		end := off + 12 + length
		if end > len(data) {
			break
		}
		out = append(out, recSpan{off: off, end: end, typ: typ, subtype: sub})
		off = end
	}
	return out
}

// nameHash is FNV-1a over a collector name: the name's label in the
// planning draws, which are topology.Chain64 draws — the same hash the
// collector simulator uses, so a (seed, labels...) tuple maps to one
// fixed uint64 with no shared state.
func nameHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mutKey salts the mutation-parameter draws: once a fault's target
// record is chosen, every byte-level choice is a function of (seed,
// archive, class, record, which), so Apply reconstructs the identical
// mutation from the Schedule and the clean archive alone.
func mutKey(seed uint64, f Fault, which uint64) []uint64 {
	return []uint64{seed, nameHash(f.Archive), uint64(f.Class), uint64(f.Record), which}
}

func isMessageSubtype(sub uint16) bool {
	switch sub {
	case mrt.SubMessage, mrt.SubMessageAS4, mrt.SubMessageAP, mrt.SubMessageAS4AP:
		return true
	}
	return false
}

// apMixable maps a non-ADD-PATH subtype to its ADD-PATH twin.
func apMixable(typ, sub uint16) (uint16, bool) {
	switch typ {
	case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
		switch sub {
		case mrt.SubMessage:
			return mrt.SubMessageAP, true
		case mrt.SubMessageAS4:
			return mrt.SubMessageAS4AP, true
		}
	case mrt.TypeTableDumpV2:
		switch sub {
		case mrt.SubRIBIPv4Unicast:
			return mrt.SubRIBIPv4UnicastAP, true
		case mrt.SubRIBIPv6Unicast:
			return mrt.SubRIBIPv6UnicastAP, true
		}
	}
	return 0, false
}

// Plan builds a fault schedule over the archives. Archives are visited
// in sorted-name order and every choice is a pure function of (seed,
// archive name, class, draw), so the schedule depends only on the
// inputs — never on map order, time, or global RNG.
func Plan(cfg Config, archives map[string][]byte) (*Schedule, error) {
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = AllClasses()
	}
	per := cfg.FaultsPerArchive
	if per <= 0 {
		per = 1
	}
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)

	sched := &Schedule{Seed: cfg.Seed}
	for _, name := range names {
		recs := indexRecords(archives[name])
		if len(recs) == 0 {
			continue
		}
		for _, class := range classes {
			for draw := 0; draw < per; draw++ {
				f, ok := planOne(cfg.Seed, class, uint64(draw), name, recs)
				if ok {
					sched.Faults = append(sched.Faults, f)
				}
			}
		}
	}
	sort.SliceStable(sched.Faults, func(i, j int) bool {
		a, b := sched.Faults[i], sched.Faults[j]
		if a.Archive != b.Archive {
			return a.Archive < b.Archive
		}
		if a.Record != b.Record {
			return a.Record < b.Record
		}
		return a.Class < b.Class
	})
	return sched, nil
}

// planOne plans a single fault of one class against one archive, or
// reports that the class does not apply (no eligible record).
func planOne(seed uint64, class Class, draw uint64, name string, recs []recSpan) (Fault, bool) {
	nh := nameHash(name)
	pick := func(n int, which uint64) int {
		return topology.ChainPick(n, seed, nh, uint64(class), draw, which)
	}
	n := len(recs)
	f := Fault{Class: class, Archive: name, Span: 1}
	switch class {
	case ClassTruncate:
		f.Record = pick(n, 1)
		cut := truncateAt(seed, f, recs)
		f.Detail = fmt.Sprintf("cut archive at byte %d (inside record %d)", cut, f.Record)
	case ClassHeaderLie:
		f.Record = pick(n, 1)
		claimed := lieLength(seed, f, recs)
		f.Detail = fmt.Sprintf("header says %d bytes, body is %d", claimed, recs[f.Record].bodyLen())
	case ClassBitFlip:
		elig := eligible(recs, func(rs recSpan) bool { return rs.bodyLen() > 0 })
		if len(elig) == 0 {
			return Fault{}, false
		}
		f.Record = elig[pick(len(elig), 1)]
		f.Detail = fmt.Sprintf("%d bit flips in record %d body", flipCount(seed, f), f.Record)
	case ClassDuplicate:
		f.Record = pick(n, 1)
		f.Detail = fmt.Sprintf("record %d emitted twice", f.Record)
	case ClassReorder:
		if n < 2 {
			return Fault{}, false
		}
		f.Record, f.Span = pick(n-1, 1), 2
		f.Detail = fmt.Sprintf("records %d and %d swapped", f.Record, f.Record+1)
	case ClassDropShard:
		span := max(1, n/8)
		f.Record, f.Span = pick(n-span+1, 1), span
		f.Detail = fmt.Sprintf("records [%d,%d) deleted", f.Record, f.Record+span)
	case ClassFlapStorm:
		src := eligible(recs, func(rs recSpan) bool {
			return (rs.typ == mrt.TypeBGP4MP || rs.typ == mrt.TypeBGP4MPET) && isMessageSubtype(rs.subtype)
		})
		if len(src) == 0 {
			return Fault{}, false
		}
		f.Record = src[pick(len(src), 1)]
		f.Span = stormSize(seed, f)
		f.Detail = fmt.Sprintf("%d state-change records inserted before record %d", f.Span, f.Record)
	case ClassAddPathMix:
		elig := eligible(recs, func(rs recSpan) bool {
			_, ok := apMixable(rs.typ, rs.subtype)
			return ok
		})
		if len(elig) == 0 {
			return Fault{}, false
		}
		start := pick(len(elig), 1)
		f.Record = elig[start]
		run := 1 + topology.ChainPick(min(4, len(elig)-start), mutKey(seed, f, 2)...)
		f.Span = elig[start+run-1] - f.Record + 1
		f.Detail = fmt.Sprintf("%d records rewritten to ADD-PATH subtypes", run)
	default:
		return Fault{}, false
	}
	f.Offset = recs[f.Record].off
	return f, true
}

// The per-class mutation parameters, shared by planOne (for Detail) and
// Apply (for the actual bytes).

func truncateAt(seed uint64, f Fault, recs []recSpan) int {
	rs := recs[f.Record]
	if body := rs.bodyLen(); body > 0 {
		return rs.off + 12 + topology.ChainPick(body, mutKey(seed, f, 2)...)
	}
	return rs.off + 1 + topology.ChainPick(11, mutKey(seed, f, 2)...)
}

func lieLength(seed uint64, f Fault, recs []recSpan) int {
	actual := recs[f.Record].bodyLen()
	if topology.ChainPick(2, mutKey(seed, f, 2)...) == 0 && actual >= 8 {
		return actual - (1 + topology.ChainPick(min(actual-1, 16), mutKey(seed, f, 3)...))
	}
	return actual + 1 + topology.ChainPick(64, mutKey(seed, f, 3)...)
}

func flipCount(seed uint64, f Fault) int {
	return 1 + topology.ChainPick(3, mutKey(seed, f, 2)...)
}

func stormSize(seed uint64, f Fault) int {
	return 16 + topology.ChainPick(17, mutKey(seed, f, 2)...)
}

func eligible(recs []recSpan, ok func(recSpan) bool) []int {
	var out []int
	for i, rs := range recs {
		if ok(rs) {
			out = append(out, i)
		}
	}
	return out
}
