package bgpstream

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
)

// FuzzStreamDecode decodes the fuzzed bytes as one source, then as two
// identical sources in one stream. Whatever the bytes hold, the stream
// must not panic; the first copy must decode as the lone source did,
// and the second copy must yield the first copy's elements and warnings
// (MsgIndex aside) while serving every memoizable block from the memo:
// the memo holds no more entries after the second copy than after the
// first.
func FuzzStreamDecode(f *testing.F) {
	f.Add(buildArchive(f))
	f.Add(memoArchive(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		one, oneWarns, _ := decodeBySource(t, BytesSource("a", data, bgp.Options{}))
		two, twoWarns, memoLen := decodeBySource(t, BytesSource("a", data, bgp.Options{}), BytesSource("b", data, bgp.Options{}))
		if !reflect.DeepEqual(one["a"], two["a"]) || !reflect.DeepEqual(oneWarns["a"], twoWarns["a"]) {
			t.Fatal("a source decodes differently alone and ahead of a second one")
		}
		if !reflect.DeepEqual(two["a"], two["b"]) {
			t.Fatalf("second copy's elements differ:\n  first:  %+v\n  second: %+v", two["a"], two["b"])
		}
		if !reflect.DeepEqual(twoWarns["a"], twoWarns["b"]) {
			t.Fatalf("second copy's warnings differ:\n  first:  %v\n  second: %v", twoWarns["a"], twoWarns["b"])
		}
		if len(two["b"]) > 0 && memoLen["b"] != memoLen["a"] {
			t.Fatalf("memo grew from %d to %d entries on the second copy", memoLen["a"], memoLen["b"])
		}
	})
}

// decodeBySource drains one stream over sources and groups its elements
// (Collector and MsgIndex cleared) and warnings (Collector cleared) by
// source collector, with the memo's entry count after each source's
// last batch.
func decodeBySource(t *testing.T, sources ...Source) (map[string][]Elem, map[string][]Warning, map[string]int) {
	s := NewStream(nil, sources...)
	s.SetIntern(aspath.NewTable())
	elems, memoLen := map[string][]Elem{}, map[string]int{}
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		src := batch[0].Collector
		for _, e := range batch {
			e.Collector, e.MsgIndex = "", 0
			elems[src] = append(elems[src], e)
		}
		memoLen[src] = s.memo.n
	}
	warns := map[string][]Warning{}
	for _, w := range s.Warnings() {
		src := w.Collector
		w.Collector = ""
		warns[src] = append(warns[src], w)
	}
	return elems, warns, memoLen
}
