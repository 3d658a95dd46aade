package bgpstream

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
)

// BenchmarkStreamDecode measures end-to-end ingest throughput — MRT
// record iteration, BGP parse, element emission, path interning — over
// four in-memory sources. MB/s is archive bytes per wall second; elems/s
// is emitted elements per wall second.
func BenchmarkStreamDecode(b *testing.B) {
	base := buildArchive(b)
	var archive []byte
	for len(archive) < 1<<19 {
		archive = append(archive, base...)
	}
	const nSources = 4
	sources := make([]Source, nSources)
	for i := range sources {
		sources[i] = BytesSource(fmt.Sprintf("c%d", i), archive, bgp.Options{})
	}
	b.SetBytes(int64(len(archive) * nSources))
	b.ReportAllocs()
	var elems int
	for i := 0; i < b.N; i++ {
		s := NewStream(nil, sources...)
		s.SetIntern(aspath.NewTable())
		elems = 0
		for {
			batch, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			elems += len(batch)
		}
	}
	if elems == 0 {
		b.Fatal("no elements decoded")
	}
	b.ReportMetric(float64(elems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}
