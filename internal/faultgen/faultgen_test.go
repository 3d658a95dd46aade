package faultgen

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"repro/internal/mrt"
)

// testArchive builds a framing-valid archive with eligible records for
// every fault class: a peer index table, RIB records with distinct
// bodies, and parseable BGP4MP messages.
func testArchive(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "test",
		Peers: []mrt.Peer{{
			BGPID: netip.MustParseAddr("203.0.113.1"),
			Addr:  netip.MustParseAddr("203.0.113.1"),
			ASN:   65001,
		}},
	}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	write := func(rec mrt.Record) {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	write(mrt.Record{Timestamp: 1000, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})
	for i := 0; i < 6; i++ {
		rib := &mrt.RIB{
			Sequence: uint32(i),
			Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			Entries:  []mrt.RIBEntry{{PeerIndex: 0, Originated: 1000}},
		}
		rb, err := rib.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		write(mrt.Record{Timestamp: 1000, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: rb})
	}
	for i := 0; i < 4; i++ {
		m := &mrt.Message{
			PeerAS: 65001, LocalAS: 65002,
			PeerAddr:  netip.MustParseAddr("203.0.113.1"),
			LocalAddr: netip.MustParseAddr("203.0.113.2"),
			AS4:       true,
			Data:      []byte{byte(i), 1, 2, 3},
		}
		mb, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		write(mrt.Record{Timestamp: 1000 + uint32(i), Type: mrt.TypeBGP4MP, Subtype: m.Subtype(), Body: mb})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testArchives(t *testing.T) map[string][]byte {
	return map[string][]byte{"alpha": testArchive(t), "beta": testArchive(t)}
}

func TestPlanDeterminism(t *testing.T) {
	archives := testArchives(t)
	cfg := Config{Seed: 42}
	s1, err := Plan(cfg, archives)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Plan(cfg, archives)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Marshal(), s2.Marshal()) {
		t.Fatalf("same seed produced different schedules:\n%s\n---\n%s", s1.Marshal(), s2.Marshal())
	}
	if len(s1.Faults) == 0 {
		t.Fatal("empty schedule")
	}
	s3, err := Plan(Config{Seed: 43}, archives)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range s1.Faults {
		if i < len(s3.Faults) && (s1.Faults[i].Record != s3.Faults[i].Record || s1.Faults[i].Detail != s3.Faults[i].Detail) {
			diff = true
			break
		}
	}
	if len(s1.Faults) != len(s3.Faults) {
		diff = true
	}
	if !diff {
		t.Error("different seeds produced identical fault placements")
	}
}

func TestApplyDeterministicAndNonMutating(t *testing.T) {
	archives := testArchives(t)
	pristine := map[string][]byte{}
	for name, data := range archives {
		pristine[name] = append([]byte(nil), data...)
	}
	sched, err := Plan(Config{Seed: 7}, archives)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Apply(sched, archives)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Apply(sched, archives)
	if err != nil {
		t.Fatal(err)
	}
	for name := range archives {
		if !bytes.Equal(d1[name], d2[name]) {
			t.Errorf("%s: Apply not deterministic", name)
		}
		if !bytes.Equal(archives[name], pristine[name]) {
			t.Errorf("%s: Apply mutated the clean input", name)
		}
	}
}

func TestEveryClassPlansAndDamages(t *testing.T) {
	for _, class := range AllClasses() {
		t.Run(class.String(), func(t *testing.T) {
			archives := map[string][]byte{"only": testArchive(t)}
			sched, err := Plan(Config{Seed: 11, Classes: []Class{class}}, archives)
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Faults) != 1 {
				t.Fatalf("planned %d faults, want 1", len(sched.Faults))
			}
			f := sched.Faults[0]
			if f.Class != class || f.Archive != "only" {
				t.Fatalf("bad fault: %+v", f)
			}
			damaged, err := Apply(sched, archives)
			if err != nil {
				t.Fatal(err)
			}
			clean, dmg := archives["only"], damaged["only"]
			if bytes.Equal(clean, dmg) {
				t.Fatalf("%s left the archive untouched: %s", class, f.Detail)
			}
			switch class {
			case ClassTruncate, ClassDropShard:
				if len(dmg) >= len(clean) {
					t.Errorf("%s did not shrink the archive (%d -> %d)", class, len(clean), len(dmg))
				}
			case ClassDuplicate, ClassFlapStorm:
				if len(dmg) <= len(clean) {
					t.Errorf("%s did not grow the archive (%d -> %d)", class, len(clean), len(dmg))
				}
			case ClassHeaderLie, ClassBitFlip, ClassReorder, ClassAddPathMix:
				if len(dmg) != len(clean) {
					t.Errorf("%s changed the length (%d -> %d)", class, len(clean), len(dmg))
				}
			}
		})
	}
}

func TestCoveredRanges(t *testing.T) {
	n := 11
	cases := []struct {
		f      Fault
		lo, hi int
	}{
		{Fault{Class: ClassTruncate, Record: 4, Span: 1}, 4, n},
		{Fault{Class: ClassHeaderLie, Record: 2, Span: 1}, 2, n},
		{Fault{Class: ClassBitFlip, Record: 3, Span: 1}, 3, 4},
		{Fault{Class: ClassDuplicate, Record: 5, Span: 1}, 5, 6},
		{Fault{Class: ClassReorder, Record: 6, Span: 2}, 6, 8},
		{Fault{Class: ClassDropShard, Record: 1, Span: 3}, 1, 4},
		{Fault{Class: ClassFlapStorm, Record: 8, Span: 20}, 0, 0},
		{Fault{Class: ClassAddPathMix, Record: 9, Span: 4}, 9, n},
	}
	for _, c := range cases {
		lo, hi := c.f.Covered(n)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s.Covered(%d) = [%d,%d), want [%d,%d)", c.f.Class, n, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCoveredPrefixes(t *testing.T) {
	clean := testArchive(t)
	// Record 0 is the PIT; records 1..6 are RIBs for 10.<i-1>.0.0/16.
	pfxs, all := CoveredPrefixes(Fault{Class: ClassBitFlip, Record: 2, Span: 1}, clean)
	if all {
		t.Fatal("single RIB record reported as poisoning the archive")
	}
	want := netip.MustParsePrefix("10.1.0.0/16")
	if len(pfxs) != 1 || pfxs[0] != want {
		t.Fatalf("covered prefixes = %v, want [%v]", pfxs, want)
	}
	if _, all := CoveredPrefixes(Fault{Class: ClassDropShard, Record: 0, Span: 2}, clean); !all {
		t.Fatal("covered PIT did not poison the archive")
	}
	if got := ArchivePrefixes(clean); len(got) != 6 {
		t.Fatalf("ArchivePrefixes = %d prefixes, want 6", len(got))
	}
	if n := len(indexRecords(clean)); n != 11 {
		t.Fatalf("%d records, want 11", n)
	}
}

func TestParseClasses(t *testing.T) {
	all, err := ParseClasses("all")
	if err != nil || len(all) != len(AllClasses()) {
		t.Fatalf("ParseClasses(all) = %v, %v", all, err)
	}
	got, err := ParseClasses("truncate, bit-flip")
	if err != nil || len(got) != 2 || got[0] != ClassTruncate || got[1] != ClassBitFlip {
		t.Fatalf("ParseClasses list = %v, %v", got, err)
	}
	if _, err := ParseClasses("nope"); err == nil {
		t.Fatal("unknown class accepted")
	}
	for _, c := range AllClasses() {
		back, err := parseClass(c.String())
		if err != nil || back != c {
			t.Fatalf("round trip %s failed: %v %v", c, back, err)
		}
	}
}

// readRecords decodes every record of an archive, copying each body
// out of the reader's reused buffer.
func readRecords(t *testing.T, data []byte) []mrt.Record {
	t.Helper()
	rd := mrt.NewReader(bytes.NewReader(data))
	var out []mrt.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Body = bytes.Clone(rec.Body)
		out = append(out, rec)
	}
}

func TestAddPathMixRewritesSubtypes(t *testing.T) {
	archives := map[string][]byte{"only": testArchive(t)}
	sched, err := Plan(Config{Seed: 3, Classes: []Class{ClassAddPathMix}}, archives)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := Apply(sched, archives)
	if err != nil {
		t.Fatal(err)
	}
	cleanRecs, dmgRecs := readRecords(t, archives["only"]), readRecords(t, damaged["only"])
	if len(cleanRecs) != len(dmgRecs) {
		t.Fatalf("record count changed: %d -> %d", len(cleanRecs), len(dmgRecs))
	}
	rewritten := 0
	for i := range cleanRecs {
		if cleanRecs[i].Subtype != dmgRecs[i].Subtype {
			rewritten++
			switch cleanRecs[i].Subtype {
			case mrt.SubRIBIPv4Unicast:
				if dmgRecs[i].Subtype != mrt.SubRIBIPv4UnicastAP {
					t.Errorf("record %d: %d -> %d", i, cleanRecs[i].Subtype, dmgRecs[i].Subtype)
				}
			case mrt.SubMessageAS4:
				if dmgRecs[i].Subtype != mrt.SubMessageAS4AP {
					t.Errorf("record %d: %d -> %d", i, cleanRecs[i].Subtype, dmgRecs[i].Subtype)
				}
			}
			if !bytes.Equal(cleanRecs[i].Body, dmgRecs[i].Body) {
				t.Errorf("record %d: body changed alongside subtype", i)
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no subtype rewritten")
	}
}
