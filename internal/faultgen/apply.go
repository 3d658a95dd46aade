package faultgen

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/mrt"
	"repro/internal/topology"
)

// Apply executes a schedule against the clean archives and returns the
// damaged copies (inputs are never mutated; archives without faults are
// returned as copies too, so the result is independent of the input).
// The mutations are reconstructed from (Schedule.Seed, fault fields,
// clean bytes), so Apply(Plan(cfg, a), a) is reproducible from the
// schedule file alone.
func Apply(sched *Schedule, archives map[string][]byte) (map[string][]byte, error) {
	out := make(map[string][]byte, len(archives))
	for name, data := range archives {
		damaged := append([]byte(nil), data...)
		faults := sched.ForArchive(name)
		// Apply back-to-front so each fault's clean byte offsets are
		// still valid: a fault only moves bytes at or after its own
		// record, and every earlier-applied fault sits at a later record.
		for i := len(faults) - 1; i >= 0; i-- {
			var err error
			damaged, err = applyOne(sched.Seed, faults[i], data, damaged)
			if err != nil {
				return nil, fmt.Errorf("faultgen: %s on %s: %w", faults[i].Class, name, err)
			}
		}
		out[name] = damaged
	}
	return out, nil
}

// applyOne mutates work according to f. clean is the pristine archive
// the schedule was planned against; record offsets come from it.
func applyOne(seed uint64, f Fault, clean, work []byte) ([]byte, error) {
	recs := indexRecords(clean)
	if f.Record >= len(recs) {
		return nil, fmt.Errorf("record %d out of range (%d records)", f.Record, len(recs))
	}
	rs := recs[f.Record]
	switch f.Class {
	case ClassTruncate:
		cut := truncateAt(seed, f, recs)
		if cut > len(work) {
			cut = len(work)
		}
		return work[:cut], nil
	case ClassHeaderLie:
		// Bounds guards here and below cover multi-fault schedules where
		// a same-record fault of a later class (applied first) already
		// shrank the archive under this one's clean offsets.
		if rs.off+12 <= len(work) {
			claimed := lieLength(seed, f, recs)
			binary.BigEndian.PutUint32(work[rs.off+8:rs.off+12], uint32(claimed))
		}
		return work, nil
	case ClassBitFlip:
		body := rs.bodyLen()
		for i := 0; i < flipCount(seed, f); i++ {
			pos := rs.off + 12 + topology.ChainPick(body, mutKey(seed, f, uint64(10+i))...)
			if pos >= len(work) {
				continue
			}
			bit := topology.ChainPick(8, mutKey(seed, f, uint64(20+i))...)
			work[pos] ^= 1 << bit
		}
		return work, nil
	case ClassDuplicate:
		return splice(work, rs.end, 0, clean[rs.off:rs.end]), nil
	case ClassReorder:
		next := recs[f.Record+1]
		swapped := make([]byte, 0, next.end-rs.off)
		swapped = append(swapped, clean[next.off:next.end]...)
		swapped = append(swapped, clean[rs.off:rs.end]...)
		return splice(work, rs.off, next.end-rs.off, swapped), nil
	case ClassDropShard:
		last := recs[f.Record+f.Span-1]
		return splice(work, rs.off, last.end-rs.off, nil), nil
	case ClassFlapStorm:
		storm, err := buildStorm(f, clean, rs)
		if err != nil {
			return nil, err
		}
		return splice(work, rs.off, 0, storm), nil
	case ClassAddPathMix:
		for i := f.Record; i < f.Record+f.Span && i < len(recs); i++ {
			r := recs[i]
			if apSub, ok := apMixable(r.typ, r.subtype); ok && r.off+12 <= len(work) {
				binary.BigEndian.PutUint16(work[r.off+6:r.off+8], apSub)
			}
		}
		return work, nil
	}
	return nil, fmt.Errorf("unknown class %d", f.Class)
}

// splice replaces work[at:at+del] with ins, copying into a new slice.
// The range is clamped to the working buffer (a colliding earlier fault
// may have shrunk it below the clean offsets).
func splice(work []byte, at, del int, ins []byte) []byte {
	if at > len(work) {
		at = len(work)
	}
	if at+del > len(work) {
		del = len(work) - at
	}
	out := make([]byte, 0, len(work)-del+len(ins))
	out = append(out, work[:at]...)
	out = append(out, ins...)
	out = append(out, work[at+del:]...)
	return out
}

// buildStorm encodes f.Span STATE_CHANGE records impersonating the peer
// of the clean BGP4MP message at rs: Established bouncing to Idle and
// back, every record well-formed. The session identity is real, the
// behavior is pathological — exactly what sanitize's flap filter must
// catch without any parse warning firing.
func buildStorm(f Fault, clean []byte, rs recSpan) ([]byte, error) {
	ts := binary.BigEndian.Uint32(clean[rs.off : rs.off+4])
	body := clean[rs.off+12 : rs.end]
	if rs.typ == mrt.TypeBGP4MPET {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: ET record too short", mrt.ErrTruncated)
		}
		body = body[4:]
	}
	var msg mrt.Message
	if err := mrt.ParseMessageInto(&msg, rs.subtype, body); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for i := 0; i < f.Span; i++ {
		sc := mrt.StateChange{
			PeerAS: msg.PeerAS, LocalAS: msg.LocalAS,
			PeerAddr: msg.PeerAddr, LocalAddr: msg.LocalAddr,
			AS4: msg.AS4,
		}
		if i%2 == 0 {
			sc.OldState, sc.NewState = mrt.StateEstablished, mrt.StateIdle
		} else {
			sc.OldState, sc.NewState = mrt.StateIdle, mrt.StateEstablished
		}
		scBody, err := sc.Marshal()
		if err != nil {
			return nil, err
		}
		rec := mrt.Record{Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: sc.Subtype(), Body: scBody}
		if err := w.WriteRecord(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
