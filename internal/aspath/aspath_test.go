package aspath

import (
	"errors"
	"hash/maphash"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func seq(asns ...uint32) Seq { return Seq(asns) }

func TestSegmentTypeString(t *testing.T) {
	cases := map[SegmentType]string{
		SegSet:            "AS_SET",
		SegSequence:       "AS_SEQUENCE",
		SegConfedSequence: "AS_CONFED_SEQUENCE",
		SegConfedSet:      "AS_CONFED_SET",
		SegmentType(9):    "SegmentType(9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("SegmentType(%d).String() = %q, want %q", st, got, want)
		}
	}
	if SegmentType(0).Valid() || SegmentType(5).Valid() {
		t.Error("invalid types reported valid")
	}
	if !SegSequence.Valid() || !SegSet.Valid() {
		t.Error("valid types reported invalid")
	}
}

func TestPathSequence(t *testing.T) {
	tests := []struct {
		name    string
		path    Path
		want    Seq
		wantErr error
	}{
		{
			name: "pure sequence",
			path: Path{Segments: []Segment{{Type: SegSequence, ASNs: []uint32{1, 2, 3}}}},
			want: seq(1, 2, 3),
		},
		{
			name: "singleton set expanded",
			path: Path{Segments: []Segment{
				{Type: SegSequence, ASNs: []uint32{1, 2}},
				{Type: SegSet, ASNs: []uint32{3}},
			}},
			want: seq(1, 2, 3),
		},
		{
			name: "multi set rejected",
			path: Path{Segments: []Segment{
				{Type: SegSequence, ASNs: []uint32{1, 2}},
				{Type: SegSet, ASNs: []uint32{3, 4, 5}},
			}},
			wantErr: ErrMultiASSet,
		},
		{
			name:    "confed rejected",
			path:    Path{Segments: []Segment{{Type: SegConfedSequence, ASNs: []uint32{1}}}},
			wantErr: ErrConfedSegment,
		},
		{
			name:    "empty segment rejected",
			path:    Path{Segments: []Segment{{Type: SegSequence}}},
			wantErr: ErrEmptySegment,
		},
		{
			name:    "empty set rejected",
			path:    Path{Segments: []Segment{{Type: SegSet}}},
			wantErr: ErrEmptySegment,
		},
		{
			name: "empty path ok",
			path: Path{},
			want: seq(),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.path.Sequence()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected err: %v", err)
			}
			if !got.Equal(tc.want) {
				t.Errorf("Sequence() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPathLen(t *testing.T) {
	p := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []uint32{1, 2, 3}},
		{Type: SegSet, ASNs: []uint32{4, 5}},
		{Type: SegSequence, ASNs: []uint32{6}},
	}}
	if got := p.Len(); got != 5 {
		t.Errorf("Len() = %d, want 5 (set counts once)", got)
	}
	if got := (Path{}).Len(); got != 0 {
		t.Errorf("empty Len() = %d", got)
	}
}

func TestPathOrigin(t *testing.T) {
	p := Path{Segments: []Segment{{Type: SegSequence, ASNs: []uint32{1, 2, 3}}}}
	if o, ok := p.Origin(); !ok || o != 3 {
		t.Errorf("Origin() = %d,%v want 3,true", o, ok)
	}
	multi := Path{Segments: []Segment{{Type: SegSet, ASNs: []uint32{3, 4}}}}
	if _, ok := multi.Origin(); ok {
		t.Error("multi-set origin should be ambiguous")
	}
	if _, ok := (Path{}).Origin(); ok {
		t.Error("empty path has no origin")
	}
	single := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []uint32{1}},
		{Type: SegSet, ASNs: []uint32{9}},
	}}
	if o, ok := single.Origin(); !ok || o != 9 {
		t.Errorf("singleton-set origin = %d,%v want 9,true", o, ok)
	}
}

func TestPathString(t *testing.T) {
	p := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []uint32{1, 2}},
		{Type: SegSet, ASNs: []uint32{3, 4, 5}},
	}}
	if got, want := p.String(), "1 2 [3 4 5]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFromSeqRoundTrip(t *testing.T) {
	s := seq(10, 20, 30)
	p := FromSeq(s)
	got, err := p.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip = %v, want %v", got, s)
	}
	if len(FromSeq(nil).Segments) != 0 {
		t.Error("FromSeq(nil) should be empty path")
	}
}

func TestSeqBasics(t *testing.T) {
	s := seq(7018, 3356, 65001)
	if o, ok := s.Origin(); !ok || o != 65001 {
		t.Errorf("Origin = %d,%v", o, ok)
	}
	if _, ok := seq().Origin(); ok {
		t.Error("empty origin")
	}
	if !s.Equal(seq(7018, 3356, 65001)) || s.Equal(seq(7018, 3356)) || s.Equal(seq(7018, 3356, 65002)) {
		t.Error("Equal broken")
	}
	c := s.Clone()
	c[0] = 1
	if s[0] != 7018 {
		t.Error("Clone aliases")
	}
	if Seq(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
	if got := s.String(); got != "7018 3356 65001" {
		t.Errorf("String = %q", got)
	}
}

func TestParseSeq(t *testing.T) {
	s, err := ParseSeq(" 701  1239 3356 ")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(seq(701, 1239, 3356)) {
		t.Errorf("got %v", s)
	}
	if _, err := ParseSeq("1 x 3"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParseSeq("99999999999"); err == nil {
		t.Error("expected overflow error")
	}
	empty, err := ParseSeq("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty parse = %v, %v", empty, err)
	}
}

func TestPrepending(t *testing.T) {
	plain := seq(1, 2, 3)
	if plain.hasPrepending() {
		t.Error("plain flagged as prepended")
	}
	pre := seq(1, 2, 2, 2, 3)
	if !pre.hasPrepending() {
		t.Error("prepended not flagged")
	}
	if got := pre.StripPrepending(); !got.Equal(plain) {
		t.Errorf("Strip = %v", got)
	}
	// No-op strip returns the same backing array.
	if &plain[0] != &plain.StripPrepending()[0] {
		t.Error("no-op strip allocated")
	}
	if got := pre.uniqueLen(); got != 3 {
		t.Errorf("uniqueLen = %d", got)
	}
	if got := seq().uniqueLen(); got != 0 {
		t.Errorf("empty uniqueLen = %d", got)
	}
	if got := seq(5).uniqueLen(); got != 1 {
		t.Errorf("single uniqueLen = %d", got)
	}
}

func TestHasLoop(t *testing.T) {
	if seq(1, 2, 2, 3).HasLoop() {
		t.Error("prepending counted as loop")
	}
	if !seq(1, 2, 3, 2).HasLoop() {
		t.Error("loop not detected")
	}
	if seq().HasLoop() || seq(1).HasLoop() {
		t.Error("trivial loop")
	}
}

func TestPrivateReservedASN(t *testing.T) {
	for _, asn := range []uint32{64512, 65000, 65534, 4200000000, 4294967294} {
		if !isPrivateASN(asn) {
			t.Errorf("ASN %d should be private", asn)
		}
	}
	for _, asn := range []uint32{1, 64511, 65535, 23456, 4199999999, 4294967295} {
		if isPrivateASN(asn) {
			t.Errorf("ASN %d should not be private", asn)
		}
	}
	if !seq(1, 65000, 3).HasPrivateASN() || seq(1, 2, 3).HasPrivateASN() {
		t.Error("HasPrivateASN broken")
	}
}

// Split-point semantics. Origin is the LAST element of a Seq; the tests
// below annotate paths in origin-first order in comments for clarity.
func TestSplitRaw(t *testing.T) {
	tests := []struct {
		name string
		a, b Seq
		want int
	}{
		// (o,P1) vs (o,P2): differ at position 2.
		{"divergence at 2", seq(10, 1), seq(20, 1), 2},
		// Different origins: split at 1.
		{"different origin", seq(10, 1), seq(10, 2), 1},
		// Identical: NoSplit.
		{"identical", seq(10, 1), seq(10, 1), NoSplit},
		// (o) vs (o,P1): suffix; divergence at position 2.
		{"proper suffix", seq(1), seq(10, 1), 2},
		{"proper suffix reversed", seq(10, 1), seq(1), 2},
		// (o,o,P1) vs (o,P1): raw comparison sees divergence at 2.
		{"prepend difference", seq(10, 1, 1), seq(10, 1), 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := SplitRaw(tc.a, tc.b); got != tc.want {
				t.Errorf("SplitRaw(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			if got := SplitRaw(tc.b, tc.a); got != tc.want {
				t.Errorf("SplitRaw not symmetric: (%v,%v) = %d, want %d", tc.b, tc.a, got, tc.want)
			}
		})
	}
}

func TestSplitUnique(t *testing.T) {
	tests := []struct {
		name string
		a, b Seq
		want int
	}{
		// Paper example: prepend-count difference splits at the origin.
		// origin-first: (o,o,P1) vs (o,P1) → split 1.
		{"origin prepend", seq(10, 1, 1), seq(10, 1), 1},
		// (o,P1) vs (o,P2) → split 2.
		{"divergence at 2", seq(10, 1), seq(20, 1), 2},
		// Different origins → 1.
		{"different origin", seq(10, 1), seq(10, 2), 1},
		// Identical → NoSplit.
		{"identical", seq(10, 1), seq(10, 1), NoSplit},
		// Identical with prepending → NoSplit.
		{"identical prepended", seq(10, 1, 1), seq(10, 1, 1), NoSplit},
		// Mid-path prepend difference: (o,T,T,X) vs (o,T,X):
		// origin-first shared (o); divergence T vs T-run → split at T = 2.
		{"midpath prepend", seq(30, 2, 2, 1), seq(30, 2, 1), 2},
		// (o,T,X) vs (o,T,Y): split 3.
		{"divergence at 3", seq(30, 2, 1), seq(40, 2, 1), 3},
		// Prepended shared region doesn't inflate: (o,o,o,T,X) vs (o,o,o,T,Y):
		// unique shared = (o,T) = 2 → split 3.
		{"shared prepending collapsed", seq(30, 2, 1, 1, 1), seq(40, 2, 1, 1, 1), 3},
		// (o) vs (o,o): pure prepend suffix → split 1.
		{"pure prepend suffix", seq(1), seq(1, 1), 1},
		// (o) vs (o,P1): suffix with new AS → split 2.
		{"suffix new AS", seq(1), seq(10, 1), 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := SplitUnique(tc.a, tc.b); got != tc.want {
				t.Errorf("SplitUnique(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			if got := SplitUnique(tc.b, tc.a); got != tc.want {
				t.Errorf("SplitUnique not symmetric: (%v,%v) = %d, want %d", tc.b, tc.a, got, tc.want)
			}
		})
	}
}

// randomSeq builds a small random path whose values come from a tiny
// alphabet so collisions and shared suffixes are common.
func randomSeq(r *rand.Rand) Seq {
	n := r.Intn(6)
	s := make(Seq, n)
	for i := range s {
		s[i] = uint32(1 + r.Intn(4))
	}
	return s
}

func TestSplitPropertyBased(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randomSeq(r), randomSeq(r)
		if len(a) == 0 || len(b) == 0 {
			continue // empty paths handled by callers
		}
		ru, rr := SplitUnique(a, b), SplitRaw(a, b)
		// Symmetry.
		if SplitUnique(b, a) != ru || SplitRaw(b, a) != rr {
			t.Fatalf("asymmetric split for %v / %v", a, b)
		}
		// Identical iff NoSplit.
		if a.Equal(b) != (ru == NoSplit) || a.Equal(b) != (rr == NoSplit) {
			t.Fatalf("NoSplit mismatch for %v / %v", a, b)
		}
		if ru == NoSplit {
			continue
		}
		// Unique split never exceeds raw split, and both are >= 1.
		if ru < 1 || rr < 1 || ru > rr {
			t.Fatalf("split bounds violated: unique=%d raw=%d for %v / %v", ru, rr, a, b)
		}
		// Unique split bounded by unique length of either path +1.
		max := a.uniqueLen()
		if bl := b.uniqueLen(); bl > max {
			max = bl
		}
		if ru > max+1 {
			t.Fatalf("unique split %d beyond unique len %d: %v / %v", ru, max, a, b)
		}
		// Stripping prepending from both must not change SplitRaw-on-stripped
		// vs SplitUnique when neither path has prepending.
		if !a.hasPrepending() && !b.hasPrepending() {
			if ru != rr {
				t.Fatalf("no prepending but unique %d != raw %d: %v / %v", ru, rr, a, b)
			}
		}
	}
}

func TestStripPrependingQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		s := make(Seq, len(vals))
		for i, v := range vals {
			s[i] = uint32(v % 5)
		}
		st := s.StripPrepending()
		// No consecutive duplicates remain.
		for i := 1; i < len(st); i++ {
			if st[i] == st[i-1] {
				return false
			}
		}
		// Idempotent.
		if !st.StripPrepending().Equal(st) {
			return false
		}
		// Length matches uniqueLen.
		return len(st) == s.uniqueLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTableIntern(t *testing.T) {
	tbl := NewTable()
	if tbl.Len() != 1 {
		t.Fatalf("new table Len = %d, want 1 (empty path)", tbl.Len())
	}
	if id := tbl.Intern(nil); id != Empty {
		t.Errorf("Intern(nil) = %d", id)
	}
	a := tbl.Intern(seq(1, 2, 3))
	b := tbl.Intern(seq(1, 2, 3))
	c := tbl.Intern(seq(1, 2, 4))
	if a != b {
		t.Error("same seq different IDs")
	}
	if a == c {
		t.Error("different seqs same ID")
	}
	if got := tbl.Seq(a); !got.Equal(seq(1, 2, 3)) {
		t.Errorf("Seq(a) = %v", got)
	}
	if got := tbl.Seq(Empty); got != nil {
		t.Errorf("Seq(Empty) = %v", got)
	}
	if got := tbl.Seq(ID(999)); got != nil {
		t.Errorf("Seq(unknown) = %v", got)
	}
	if o, ok := tbl.Origin(a); !ok || o != 3 {
		t.Errorf("Origin(a) = %d,%v", o, ok)
	}
	if _, ok := tbl.Origin(Empty); ok {
		t.Error("Origin(Empty) should fail")
	}
}

func TestTableInternDoesNotAlias(t *testing.T) {
	tbl := NewTable()
	s := seq(5, 6, 7)
	id := tbl.Intern(s)
	s[0] = 99
	if got := tbl.Seq(id); !got.Equal(seq(5, 6, 7)) {
		t.Errorf("table aliased caller slice: %v", got)
	}
}

func TestTableConcurrent(t *testing.T) {
	tbl := NewTable()
	done := make(chan map[Seq8]ID)
	const workers = 8
	for w := 0; w < workers; w++ {
		go func(w int) {
			r := rand.New(rand.NewSource(int64(w)))
			local := make(map[Seq8]ID)
			for i := 0; i < 500; i++ {
				s := randomSeq(r)
				id := tbl.Intern(s)
				local[toSeq8(s)] = id
			}
			done <- local
		}(w)
	}
	merged := make(map[Seq8]ID)
	for w := 0; w < workers; w++ {
		for k, v := range <-done {
			if prev, ok := merged[k]; ok && prev != v {
				t.Fatalf("seq %v interned to both %d and %d", k, prev, v)
			}
			merged[k] = v
		}
	}
	// Every recorded ID must round-trip.
	for k, id := range merged {
		if got := toSeq8(tbl.Seq(id)); got != k {
			t.Fatalf("round trip: id %d = %v, want %v", id, got, k)
		}
	}
}

// TestTableConcurrentReaders interleaves interning with lock-free
// Seq/Len/Origin readers: every ID below a snapshot of Len must resolve
// to a non-nil sequence whose re-intern returns the same ID (dense,
// stable, published-before-visible).
func TestTableConcurrentReaders(t *testing.T) {
	tbl := NewTable()
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 2000; i++ {
				tbl.Intern(randomSeq(r))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := tbl.Len()
				for id := 1; id < n; id++ {
					s := tbl.Seq(ID(id))
					if s == nil {
						t.Errorf("Seq(%d) nil below Len %d", id, n)
						return
					}
					if got := tbl.Intern(s); got != ID(id) {
						t.Errorf("re-intern of id %d returned %d", id, got)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestTableIDsIndependentOfSeed interns one sequence of paths into two
// tables keyed by different seeds: probe order differs, IDs must not.
func TestTableIDsIndependentOfSeed(t *testing.T) {
	a, b := NewTable(), NewTable()
	for a.seed == b.seed {
		b.seed = maphash.MakeSeed()
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		s := make(Seq, 1+r.Intn(8))
		for j := range s {
			s[j] = uint32(r.Intn(64))
		}
		if ia, ib := a.Intern(s), b.Intern(s); ia != ib {
			t.Fatalf("intern %d of %v: seed A gave ID %d, seed B %d", i, s, ia, ib)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
}

// TestTableConcurrentGrowth interns enough distinct paths from several
// goroutines that every shard resizes several times while the others
// probe it; every ID must round-trip to the sequence interned for it.
func TestTableConcurrentGrowth(t *testing.T) {
	tbl := NewTable()
	const workers, perWorker = 4, 6000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping ranges: each path is interned by two workers.
			for i := 0; i < perWorker; i++ {
				k := uint32(w*perWorker/2 + i)
				s := Seq{k % 97, k, 64512 + k%7}
				if got := tbl.Seq(tbl.Intern(s)); !got.Equal(s) {
					t.Errorf("Seq(Intern(%v)) = %v", s, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	distinct := (workers + 1) * perWorker / 2
	if tbl.Len() != distinct+1 {
		t.Fatalf("Len = %d, want %d", tbl.Len(), distinct+1)
	}
	for i := range tbl.shards {
		// 16 slots to start; ~230 paths a shard need 256 or more, four
		// doublings.
		if n := len(tbl.shards[i].slots); n < 256 {
			t.Fatalf("shard %d has %d slots, want at least 256", i, n)
		}
	}
}

// Seq8 is a fixed-size comparable stand-in for short sequences in tests.
type Seq8 struct {
	n int
	v [8]uint32
}

func toSeq8(s Seq) Seq8 {
	var k Seq8
	k.n = len(s)
	copy(k.v[:], s)
	return k
}

func TestSeqStringAndReflectEqual(t *testing.T) {
	// reflect.DeepEqual compatibility sanity (used by some callers).
	if !reflect.DeepEqual(seq(1, 2), seq(1, 2)) {
		t.Error("DeepEqual broken for Seq")
	}
}

// TestInternHitPathAllocs is the allocation-regression guard for the
// interning fast path: re-interning an already-known sequence (the
// steady state of snapshot assembly) must not allocate — the words are
// hashed in place and probed against the table's stored copies.
func TestInternHitPathAllocs(t *testing.T) {
	tbl := NewTable()
	seqs := []Seq{
		{3356, 1299, 65001},
		{3356, 1299, 1299, 1299, 65002},
		{64512, 3356, 174, 2914, 1239, 701, 7018, 65003},
	}
	// A 32-hop path: an implementation that copies the words into a
	// key shows the copy here, where it no longer fits a stack
	// temporary.
	long := make(Seq, 32)
	for i := range long {
		long[i] = uint32(64512 + i)
	}
	seqs = append(seqs, long)
	for _, s := range seqs {
		tbl.Intern(s)
	}
	for _, s := range seqs {
		s := s
		if got := testing.AllocsPerRun(1000, func() {
			if tbl.Intern(s) == Empty {
				t.Fatal("unexpected Empty")
			}
		}); got != 0 {
			t.Errorf("Intern hit path allocs/op = %v for %v, want 0", got, s)
		}
	}
}

// BenchmarkInternHit measures the warmed interning fast path.
func BenchmarkInternHit(b *testing.B) {
	tbl := NewTable()
	s := Seq{3356, 1299, 2914, 65001}
	tbl.Intern(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Intern(s) == Empty {
			b.Fatal("unexpected Empty")
		}
	}
}

// uniqueLen returns the number of ASes in the sequence after collapsing
// consecutive duplicates: the property tests' oracle for the hop count
// of formation-distance method (iii).
func (s Seq) uniqueLen() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}
